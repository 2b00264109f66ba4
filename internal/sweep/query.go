package sweep

// Query layer over flattened Records: dimension filters, a canonical sort
// order, and grouped aggregation. The HTTP service (internal/server) is
// built on these, but they are plain slice transforms usable by any
// consumer of a result corpus.

import (
	"cmp"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Filter selects records by exact-match configuration values. The zero
// Filter selects every record; ParseFilter builds the rest.
type Filter struct {
	conds []cond
}

// cond is one filtered column and its allowed values: text for a string
// column, keys for a numeric one.
type cond struct {
	col  *column
	strs []string
	keys []int64
}

// ParseFilter builds a Filter from /results query parameters, one per
// configuration column (benchmark, dpolicy, ..., papercosts, insts). Every
// parameter takes a comma-separated list; integer columns accept k/m
// suffixes, binary like the CLI flags except for the decimal insts.
// Absent or empty parameters match anything.
func ParseFilter(q url.Values) (Filter, error) {
	var f Filter
	for i := range dims {
		c := &dims[i]
		vals := splitList(q.Get(c.param))
		if len(vals) == 0 {
			continue
		}
		cd := cond{col: c}
		if c.key == nil {
			cd.strs = vals
		} else {
			for _, v := range vals {
				k, err := c.parse(v)
				if err != nil {
					return Filter{}, fmt.Errorf("%s: %w", c.param, err)
				}
				cd.keys = append(cd.keys, k)
			}
		}
		f.conds = append(f.conds, cd)
	}
	return f, nil
}

// Match reports whether r satisfies every column f sets; it visits only
// those columns.
func (f Filter) Match(r *Record) bool {
	for i := range f.conds {
		c := &f.conds[i]
		if c.col.key == nil {
			if !slices.Contains(c.strs, c.col.text(r)) {
				return false
			}
		} else if !slices.Contains(c.keys, c.col.key(r)) {
			return false
		}
	}
	return true
}

// Apply returns the records matching f, in their incoming order.
func (f Filter) Apply(recs []Record) []Record {
	// Grown by append, so a narrow filter over a large corpus allocates
	// only what it returns; never nil, so no match encodes as [].
	out := []Record{}
	for i := range recs {
		if f.Match(&recs[i]) {
			out = append(out, recs[i])
		}
	}
	return out
}

// CompareRecords orders records by their configuration columns in the grid
// expansion order (benchmark slowest, instruction count fastest), so a
// sorted record set from any source — a log scan, a merge of shards —
// reads like one deterministic grid.
func CompareRecords(a, b *Record) int {
	for i := range dims {
		c := &dims[i]
		var d int
		if c.key == nil {
			d = strings.Compare(c.text(a), c.text(b))
		} else {
			d = cmp.Compare(c.key(a), c.key(b))
		}
		if d != 0 {
			return d
		}
	}
	return 0
}

// SortRecords sorts records canonically (see CompareRecords), in place.
func SortRecords(recs []Record) {
	sort.SliceStable(recs, func(i, j int) bool { return CompareRecords(&recs[i], &recs[j]) < 0 })
}

// Dimensions lists the group-by dimension names Aggregate accepts — the
// Record configuration columns, spelled like the JSON/CSV headers.
func Dimensions() []string { return names(dims) }

// Metrics lists the metric names Aggregate accepts — the Record result
// columns, spelled like the JSON/CSV headers.
func Metrics() []string { return names(metrics) }

func names(cols []column) []string {
	out := make([]string, len(cols))
	for i := range cols {
		out[i] = cols[i].name
	}
	return out
}

// lookup finds the column called name among cols; what names the kind of
// column in the error.
func lookup(cols []column, name, what string) (*column, error) {
	for i := range cols {
		if cols[i].name == name {
			return &cols[i], nil
		}
	}
	return nil, fmt.Errorf("sweep: unknown %s %q (have %s)", what, name, strings.Join(names(cols), ", "))
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
	dc, err := lookup(dims, dim, "dimension")
	if err != nil {
		return nil, err
	}
	mc, err := lookup(metrics, metric, "metric")
	if err != nil {
		return nil, err
	}
	sorted := make([]Record, len(recs))
	copy(sorted, recs)
	SortRecords(sorted)

	var (
		order []string
		acc   = make(map[string]*GroupStat)
	)
	for i := range sorted {
		label, v := dc.text(&sorted[i]), mc.value(&sorted[i])
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
