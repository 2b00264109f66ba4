package sweep

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"slices"
	"strconv"

	"waycache/internal/core"
)

// Record is one simulated configuration flattened for machine consumption:
// the canonical configuration alongside its timing, cache and energy
// results. Every field is derived from the simulation alone (no wall-clock
// or host state), so serialized records are byte-identical across runs and
// worker counts.
type Record struct {
	Benchmark string `json:"benchmark"`
	DPolicy   string `json:"dPolicy"`
	IPolicy   string `json:"iPolicy"`

	DSize  int `json:"dSize"`
	DWays  int `json:"dWays"`
	DBlock int `json:"dBlock"`
	ISize  int `json:"iSize"`
	IWays  int `json:"iWays"`
	IBlock int `json:"iBlock"`

	DLatency   int `json:"dLatency"`
	TableSize  int `json:"tableSize"`
	VictimSize int `json:"victimSize"`
	// SelectiveWays (the Albonesi related-work baseline) and
	// UsePaperCosts (Table 3 constants instead of mini-CACTI) are part of
	// the memo key, so they must be part of the record too: without them,
	// a corpus holding those runs would show conflicting rows with
	// identical columns.
	SelectiveWays int   `json:"selectiveWays"`
	UsePaperCosts bool  `json:"usePaperCosts"`
	Insts         int64 `json:"insts"`

	Cycles int64   `json:"cycles"`
	IPC    float64 `json:"ipc"`

	DMissRate       float64 `json:"dMissRate"`
	IMissRate       float64 `json:"iMissRate"`
	WayPredAccuracy float64 `json:"wayPredAccuracy"`
	IWayAccuracy    float64 `json:"iWayAccuracy"`

	DCacheEnergy float64 `json:"dCacheEnergy"`
	ICacheEnergy float64 `json:"iCacheEnergy"`
	ProcEnergy   float64 `json:"procEnergy"`
	// DCacheED and ProcED are energy x cycles, the quantity the paper's
	// relative figures are ratios of.
	DCacheED float64 `json:"dCacheED"`
	ProcED   float64 `json:"procED"`
}

// NewRecord flattens one simulation result.
func NewRecord(r *core.Result) Record {
	cfg := r.Config.Canonical()
	rec := Record{
		Benchmark: r.Benchmark,
		DPolicy:   cfg.DPolicy.String(),
		IPolicy:   cfg.IPolicy.String(),
		DSize:     cfg.DSize, DWays: cfg.DWays, DBlock: cfg.DBlock,
		ISize: cfg.ISize, IWays: cfg.IWays, IBlock: cfg.IBlock,
		DLatency:      cfg.DLatency,
		TableSize:     cfg.TableSize,
		VictimSize:    cfg.VictimSize,
		SelectiveWays: cfg.SelectiveWays,
		UsePaperCosts: cfg.UsePaperCosts,
		Insts:         cfg.Insts,

		Cycles:          r.Cycles(),
		DMissRate:       r.DMissRate(),
		IMissRate:       r.IL1.MissRate(),
		WayPredAccuracy: r.WayPredAccuracy(),
		IWayAccuracy:    r.IWayAccuracy(),

		DCacheEnergy: r.DCacheEnergy(),
		ICacheEnergy: r.ICacheEnergy(),
		ProcEnergy:   r.ProcessorEnergy(),
	}
	if rec.Cycles > 0 {
		rec.IPC = float64(r.Pipeline.Committed) / float64(rec.Cycles)
	}
	rec.DCacheED = rec.DCacheEnergy * float64(rec.Cycles)
	rec.ProcED = rec.ProcEnergy * float64(rec.Cycles)
	return rec
}

// Sweep is the merged output of one grid run, records in grid order.
type Sweep struct {
	Records []Record `json:"records"`
}

// NewSweep flattens simulation results (in their existing order) into a
// Sweep, one record per result.
func NewSweep(results []*core.Result) *Sweep {
	sw := &Sweep{Records: make([]Record, len(results))}
	for i, r := range results {
		sw.Records[i] = NewRecord(r)
	}
	return sw
}

// WriteJSON emits the records as an indented JSON array. Output bytes
// depend only on the records, making worker-count-independence testable
// with a byte compare.
func (s *Sweep) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Records)
}

// WriteCSV emits the records as CSV with a header row, one column per
// entry of columns.
func (s *Sweep) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(names(columns)); err != nil {
		return err
	}
	row := make([]string, len(columns))
	for k := range s.Records {
		for i := range columns {
			row[i] = columns[i].text(&s.Records[k])
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// column is one Record field as every view of a record sees it: the CSV
// writer, the /results filter, the canonical sort and the aggregation all
// loop over columns, so a field added to Record and to this table reaches
// each of them at once.
type column struct {
	name  string // JSON key and CSV header
	param string // /results query parameter; empty for result columns
	text  func(*Record) string
	// key orders and matches a numeric configuration column (booleans as
	// 0/1), and parse reads one filter value into a key; string
	// configuration columns order and match by text.
	key   func(*Record) int64
	parse func(string) (int64, error)
	value func(*Record) float64 // result columns
}

// columns declares Record's columns in field order: the configuration
// columns, slowest-varying first, then the result columns.
var columns = []column{
	strCol("benchmark", "benchmark", func(r *Record) string { return r.Benchmark }),
	strCol("dPolicy", "dpolicy", func(r *Record) string { return r.DPolicy }),
	strCol("iPolicy", "ipolicy", func(r *Record) string { return r.IPolicy }),
	intCol("dSize", "dsize", func(r *Record) int64 { return int64(r.DSize) }),
	intCol("dWays", "dways", func(r *Record) int64 { return int64(r.DWays) }),
	intCol("dBlock", "dblock", func(r *Record) int64 { return int64(r.DBlock) }),
	intCol("iSize", "isize", func(r *Record) int64 { return int64(r.ISize) }),
	intCol("iWays", "iways", func(r *Record) int64 { return int64(r.IWays) }),
	intCol("iBlock", "iblock", func(r *Record) int64 { return int64(r.IBlock) }),
	intCol("dLatency", "dlatency", func(r *Record) int64 { return int64(r.DLatency) }),
	intCol("tableSize", "tablesize", func(r *Record) int64 { return int64(r.TableSize) }),
	intCol("victimSize", "victimsize", func(r *Record) int64 { return int64(r.VictimSize) }),
	intCol("selectiveWays", "selectiveways", func(r *Record) int64 { return int64(r.SelectiveWays) }),
	{
		name: "usePaperCosts", param: "papercosts",
		text: func(r *Record) string { return strconv.FormatBool(r.UsePaperCosts) },
		key:  func(r *Record) int64 { return boolKey(r.UsePaperCosts) },
		parse: func(s string) (int64, error) {
			b, err := strconv.ParseBool(s)
			return boolKey(b), err
		},
	},
	{
		name: "insts", param: "insts",
		text: func(r *Record) string { return strconv.FormatInt(r.Insts, 10) },
		key:  func(r *Record) int64 { return r.Insts },
		// Instruction counts are decimal: insts=20k is 20,000.
		parse: func(s string) (int64, error) { return parseCount(s, 1000) },
	},
	{
		name:  "cycles",
		text:  func(r *Record) string { return strconv.FormatInt(r.Cycles, 10) },
		value: func(r *Record) float64 { return float64(r.Cycles) },
	},
	floatCol("ipc", func(r *Record) float64 { return r.IPC }),
	floatCol("dMissRate", func(r *Record) float64 { return r.DMissRate }),
	floatCol("iMissRate", func(r *Record) float64 { return r.IMissRate }),
	floatCol("wayPredAccuracy", func(r *Record) float64 { return r.WayPredAccuracy }),
	floatCol("iWayAccuracy", func(r *Record) float64 { return r.IWayAccuracy }),
	floatCol("dCacheEnergy", func(r *Record) float64 { return r.DCacheEnergy }),
	floatCol("iCacheEnergy", func(r *Record) float64 { return r.ICacheEnergy }),
	floatCol("procEnergy", func(r *Record) float64 { return r.ProcEnergy }),
	floatCol("dCacheED", func(r *Record) float64 { return r.DCacheED }),
	floatCol("procED", func(r *Record) float64 { return r.ProcED }),
}

// dims and metrics split columns into its configuration columns (the
// group-by dimensions and filters) and its result columns.
var (
	dims    = columns[:slices.IndexFunc(columns, func(c column) bool { return c.param == "" })]
	metrics = columns[len(dims):]
)

func strCol(name, param string, f func(*Record) string) column {
	return column{name: name, param: param, text: f}
}

func intCol(name, param string, f func(*Record) int64) column {
	return column{
		name: name, param: param, key: f,
		parse: func(s string) (int64, error) { return parseCount(s, 1<<10) },
		text:  func(r *Record) string { return strconv.FormatInt(f(r), 10) },
	}
}

func boolKey(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func floatCol(name string, f func(*Record) float64) column {
	return column{
		name: name, value: f,
		text: func(r *Record) string { return strconv.FormatFloat(f(r), 'g', -1, 64) },
	}
}
