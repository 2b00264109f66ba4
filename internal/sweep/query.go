package sweep

// Query layer over flattened Records: dimension filters, a canonical sort
// order, and grouped aggregation. The HTTP service (internal/server) is
// built on these, but they are plain slice transforms usable by any
// consumer of a result corpus.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// Filter selects records by exact-match dimension values. Empty (nil or
// zero) fields match everything, so the zero Filter selects every record.
type Filter struct {
	Benchmarks []string
	DPolicies  []string // paper names, as Record carries them
	IPolicies  []string

	DSizes, DWays, DBlocks []int
	ISizes, IWays, IBlocks []int
	DLatencies             []int
	TableSizes             []int
	VictimSizes            []int
	SelectiveWays          []int

	// UsePaperCosts: nil matches both cost models, otherwise exact.
	UsePaperCosts *bool

	Insts int64 // 0 matches any instruction count
}

func matchString(allowed []string, v string) bool {
	if len(allowed) == 0 {
		return true
	}
	for _, a := range allowed {
		if a == v {
			return true
		}
	}
	return false
}

func matchInt(allowed []int, v int) bool {
	if len(allowed) == 0 {
		return true
	}
	for _, a := range allowed {
		if a == v {
			return true
		}
	}
	return false
}

// Match reports whether r satisfies every populated dimension of f.
func (f Filter) Match(r Record) bool {
	return matchString(f.Benchmarks, r.Benchmark) &&
		matchString(f.DPolicies, r.DPolicy) &&
		matchString(f.IPolicies, r.IPolicy) &&
		matchInt(f.DSizes, r.DSize) &&
		matchInt(f.DWays, r.DWays) &&
		matchInt(f.DBlocks, r.DBlock) &&
		matchInt(f.ISizes, r.ISize) &&
		matchInt(f.IWays, r.IWays) &&
		matchInt(f.IBlocks, r.IBlock) &&
		matchInt(f.DLatencies, r.DLatency) &&
		matchInt(f.TableSizes, r.TableSize) &&
		matchInt(f.VictimSizes, r.VictimSize) &&
		matchInt(f.SelectiveWays, r.SelectiveWays) &&
		(f.UsePaperCosts == nil || *f.UsePaperCosts == r.UsePaperCosts) &&
		(f.Insts == 0 || f.Insts == r.Insts)
}

// Apply returns the records matching f, in their incoming order.
func (f Filter) Apply(recs []Record) []Record {
	// Grown by append, so a narrow filter over a large corpus allocates
	// only what it returns; never nil, so no match encodes as [].
	out := []Record{}
	for _, r := range recs {
		if f.Match(r) {
			out = append(out, r)
		}
	}
	return out
}

// CompareRecords orders records by their configuration columns in the grid
// expansion order (benchmark slowest, victim-list size fastest), so a
// sorted record set from any source — a log scan, a merge of shards —
// reads like one deterministic grid.
func CompareRecords(a, b Record) int {
	if c := strings.Compare(a.Benchmark, b.Benchmark); c != 0 {
		return c
	}
	if c := strings.Compare(a.DPolicy, b.DPolicy); c != 0 {
		return c
	}
	if c := strings.Compare(a.IPolicy, b.IPolicy); c != 0 {
		return c
	}
	boolInt := func(v bool) int {
		if v {
			return 1
		}
		return 0
	}
	ints := [][2]int{
		{a.DSize, b.DSize}, {a.DWays, b.DWays}, {a.DBlock, b.DBlock},
		{a.ISize, b.ISize}, {a.IWays, b.IWays}, {a.IBlock, b.IBlock},
		{a.DLatency, b.DLatency}, {a.TableSize, b.TableSize}, {a.VictimSize, b.VictimSize},
		{a.SelectiveWays, b.SelectiveWays},
		{boolInt(a.UsePaperCosts), boolInt(b.UsePaperCosts)},
	}
	for _, p := range ints {
		if p[0] != p[1] {
			if p[0] < p[1] {
				return -1
			}
			return 1
		}
	}
	switch {
	case a.Insts < b.Insts:
		return -1
	case a.Insts > b.Insts:
		return 1
	}
	return 0
}

// SortRecords sorts records canonically (see CompareRecords), in place.
func SortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return CompareRecords(recs[i], recs[j]) < 0 })
}

// Dimensions lists the group-by dimension names Aggregate accepts — the
// Record configuration columns, spelled like the JSON/CSV headers.
func Dimensions() []string {
	return []string{
		"benchmark", "dPolicy", "iPolicy",
		"dSize", "dWays", "dBlock", "iSize", "iWays", "iBlock",
		"dLatency", "tableSize", "victimSize", "selectiveWays", "usePaperCosts",
	}
}

// Metrics lists the metric names Aggregate accepts — the Record result
// columns, spelled like the JSON/CSV headers.
func Metrics() []string {
	return []string{
		"cycles", "ipc",
		"dMissRate", "iMissRate", "wayPredAccuracy", "iWayAccuracy",
		"dCacheEnergy", "iCacheEnergy", "procEnergy", "dCacheED", "procED",
	}
}

// dimValue renders one configuration column of r as its group label.
func dimValue(r Record, dim string) (string, error) {
	switch dim {
	case "benchmark":
		return r.Benchmark, nil
	case "dPolicy":
		return r.DPolicy, nil
	case "iPolicy":
		return r.IPolicy, nil
	case "dSize":
		return strconv.Itoa(r.DSize), nil
	case "dWays":
		return strconv.Itoa(r.DWays), nil
	case "dBlock":
		return strconv.Itoa(r.DBlock), nil
	case "iSize":
		return strconv.Itoa(r.ISize), nil
	case "iWays":
		return strconv.Itoa(r.IWays), nil
	case "iBlock":
		return strconv.Itoa(r.IBlock), nil
	case "dLatency":
		return strconv.Itoa(r.DLatency), nil
	case "tableSize":
		return strconv.Itoa(r.TableSize), nil
	case "victimSize":
		return strconv.Itoa(r.VictimSize), nil
	case "selectiveWays":
		return strconv.Itoa(r.SelectiveWays), nil
	case "usePaperCosts":
		return strconv.FormatBool(r.UsePaperCosts), nil
	}
	return "", fmt.Errorf("sweep: unknown dimension %q (have %s)", dim, strings.Join(Dimensions(), ", "))
}

// metricValue extracts one result column of r.
func metricValue(r Record, metric string) (float64, error) {
	switch metric {
	case "cycles":
		return float64(r.Cycles), nil
	case "ipc":
		return r.IPC, nil
	case "dMissRate":
		return r.DMissRate, nil
	case "iMissRate":
		return r.IMissRate, nil
	case "wayPredAccuracy":
		return r.WayPredAccuracy, nil
	case "iWayAccuracy":
		return r.IWayAccuracy, nil
	case "dCacheEnergy":
		return r.DCacheEnergy, nil
	case "iCacheEnergy":
		return r.ICacheEnergy, nil
	case "procEnergy":
		return r.ProcEnergy, nil
	case "dCacheED":
		return r.DCacheED, nil
	case "procED":
		return r.ProcED, nil
	}
	return 0, fmt.Errorf("sweep: unknown metric %q (have %s)", metric, strings.Join(Metrics(), ", "))
}

// GroupStat summarizes one group's metric values.
type GroupStat struct {
	Group string  `json:"group"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
}

// Aggregate groups records by one configuration dimension and summarizes
// one metric per group (count, mean, min, max). Groups appear in the
// canonical sorted order of their records, so the output bytes depend only
// on the record set, never on map iteration or arrival order.
func Aggregate(recs []Record, dim, metric string) ([]GroupStat, error) {
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	SortRecords(sorted)

	var (
		order []string
		acc   = make(map[string]*GroupStat)
	)
	for _, r := range sorted {
		label, err := dimValue(r, dim)
		if err != nil {
			return nil, err
		}
		v, err := metricValue(r, metric)
		if err != nil {
			return nil, err
		}
		g, ok := acc[label]
		if !ok {
			g = &GroupStat{Group: label, Min: v, Max: v}
			acc[label] = g
			order = append(order, label)
		}
		g.Count++
		g.Mean += v // sum for now; divided below
		if v < g.Min {
			g.Min = v
		}
		if v > g.Max {
			g.Max = v
		}
	}
	out := make([]GroupStat, len(order))
	for i, label := range order {
		g := acc[label]
		g.Mean /= float64(g.Count)
		out[i] = *g
	}
	return out, nil
}

// WriteGroupStatsJSON emits aggregation output as an indented JSON array,
// styled like Sweep.WriteJSON.
func WriteGroupStatsJSON(w io.Writer, stats []GroupStat) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(stats)
}

// WriteGroupStatsCSV emits aggregation output as CSV; the first column is
// named after the group-by dimension.
func WriteGroupStatsCSV(w io.Writer, dim string, stats []GroupStat) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{dim, "count", "mean", "min", "max"}); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, g := range stats {
		if err := cw.Write([]string{g.Group, strconv.Itoa(g.Count), f(g.Mean), f(g.Min), f(g.Max)}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
