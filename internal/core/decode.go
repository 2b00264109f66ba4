package core

// Result decoding: a positional reader of exactly the bytes EncodeResult
// writes. Every stored result is decoded whenever a corpus is rebuilt from
// the store, so decoding is the bulk of a server's cold start; the reader
// decodes a canonical payload without reflection, allocating only the
// Result and its strings.
//
// json.Marshal writes every field of Result, in declaration order, with
// no whitespace, so a canonical payload is one fixed sequence of keys.
// Each per-struct function below is that sequence for its struct, and
// each value reader first consumes the literal text before its value: the
// brace or comma, the key and the colon. The reader accepts a payload
// only if it matches that sequence to the last byte and every value in it
// decodes exactly as json.Unmarshal would decode it: numbers follow the
// JSON grammar and fit their field, strings hold no escape or control
// character and are valid UTF-8, and policies pass their own
// UnmarshalJSON. At the first byte that differs, DecodeResult hands the
// whole payload to encoding/json. So does a record from an older or newer
// waycache, whose fields differ, or one holding an escaped string: they
// decode as before, only slower. TestDecodeResultAllocs would count the
// allocations of a canonical payload that fell back, and FuzzDecodeResult
// checks the two decoders against each other.

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"

	"waycache/internal/access"
	"waycache/internal/cache"
	"waycache/internal/energy"
	"waycache/internal/pipeline"
	"waycache/internal/wattch"
)

// decoder reads one canonical Result.
type decoder struct {
	data []byte
	pos  int
	// ok is cleared at the first byte that is not canonical; fail also
	// moves pos to the end, so every later read stops at once.
	ok bool
	// last is the most recently decoded string. Result.Benchmark and
	// Config.Benchmark hold the same name, so the second reuses the first.
	last string
}

// decodeResult decodes data into r and reports whether data was a
// canonical payload. On false, r holds partial data.
func decodeResult(data []byte, r *Result) bool {
	d := decoder{data: data, ok: true}
	d.result(r)
	return d.ok && d.pos == len(d.data)
}

func (d *decoder) fail() {
	d.ok = false
	d.pos = len(d.data)
}

// lit consumes the literal text s and reports whether it came next.
func (d *decoder) lit(s string) bool {
	if end := d.pos + len(s); end <= len(d.data) && string(d.data[d.pos:end]) == s {
		d.pos = end
		return true
	}
	d.fail()
	return false
}

// number consumes pre and the number literal after it, and reports whether
// the number is an integer (no fraction or exponent). It checks the JSON
// grammar itself: strconv also takes "+1", "0x1p3", "inf" and "1_0",
// which JSON does not.
func (d *decoder) number(pre string) (tok []byte, integer bool) {
	if !d.lit(pre) {
		return nil, false
	}
	b, i := d.data, d.pos
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i)
	default:
		d.fail()
		return nil, false
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			d.fail()
			return nil, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.fail()
			return nil, false
		}
		i, integer = j, false
	}
	tok, d.pos = b[d.pos:i], i
	return tok, integer
}

func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// i64 decodes an integer field. Like json it rejects a fraction or an
// exponent ("5.0", "1e2") and anything outside int64.
func (d *decoder) i64(pre string, p *int64) {
	tok, integer := d.number(pre)
	if !integer {
		d.fail()
		return
	}
	neg := tok[0] == '-'
	if neg {
		tok = tok[1:]
	}
	limit := uint64(math.MaxInt64)
	if neg {
		limit++
	}
	var u uint64
	for _, c := range tok {
		if u > limit/10 {
			d.fail()
			return
		}
		u = u*10 + uint64(c-'0')
	}
	if u > limit {
		d.fail()
		return
	}
	if neg {
		*p = -int64(u)
	} else {
		*p = int64(u)
	}
}

// int decodes an int field, which json bounds by the platform's int.
func (d *decoder) int(pre string, p *int) {
	var v int64
	d.i64(pre, &v)
	if int64(int(v)) != v {
		d.fail()
		return
	}
	*p = int(v)
}

// f64 decodes a float field. ParseFloat fails out of range ("1e400"), and
// so does json.
func (d *decoder) f64(pre string, p *float64) {
	tok, _ := d.number(pre)
	if !d.ok {
		return
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail()
		return
	}
	*p = f
}

func (d *decoder) bool(pre string, p *bool) {
	*p = d.lit(pre) && d.pos < len(d.data) && d.data[d.pos] == 't'
	if *p {
		d.lit("true")
	} else {
		d.lit("false")
	}
}

// quoted consumes pre and the string literal after it, quotes included,
// and returns the literal. json unescapes and replaces invalid UTF-8, so
// a string with an escape or invalid UTF-8 is left to it, as is one with
// a control character, which json rejects.
func (d *decoder) quoted(pre string) []byte {
	if !d.lit(pre) || !d.lit(`"`) {
		return nil
	}
	b, start := d.data, d.pos
	i := start
	for i < len(b) && b[i] >= 0x20 && b[i] != '"' && b[i] != '\\' {
		i++
	}
	if i == len(b) || b[i] != '"' || !utf8.Valid(b[start:i]) {
		d.fail()
		return nil
	}
	d.pos = i + 1
	return b[start-1 : i+1]
}

// str decodes a string field.
func (d *decoder) str(pre string, p *string) {
	lit := d.quoted(pre)
	if !d.ok {
		return
	}
	if raw := lit[1 : len(lit)-1]; string(raw) != d.last {
		d.last = string(raw)
	}
	*p = d.last
}

// i64s decodes a JSON array into a fixed-size Go array of the same
// length, as json.Marshal writes it. pre ends with the array's bracket.
func (d *decoder) i64s(pre string, a []int64) {
	for i := range a {
		d.i64(pre, &a[i])
		pre = ","
	}
	d.lit("]")
}

// policy hands a policy's name, quotes included, to its own UnmarshalJSON,
// as json does.
func (d *decoder) policy(pre string, u json.Unmarshaler) {
	lit := d.quoted(pre)
	if d.ok && u.UnmarshalJSON(lit) != nil {
		d.fail()
	}
}

func (d *decoder) result(r *Result) {
	d.str(`{"Benchmark":`, &r.Benchmark)
	d.config(`,"Config":`, &r.Config)
	d.pipelineStats(`,"Pipeline":`, &r.Pipeline)
	d.dStats(`,"DStats":`, &r.DStats)
	d.iStats(`,"IStats":`, &r.IStats)
	d.account(`,"DAcct":`, &r.DAcct)
	d.account(`,"IAcct":`, &r.IAcct)
	d.cacheStats(`,"DL1":`, &r.DL1)
	d.cacheStats(`,"IL1":`, &r.IL1)
	d.hierarchyStats(`,"Hier":`, &r.Hier)
	d.breakdown(`,"Power":`, &r.Power)
	d.lit("}")
}

func (d *decoder) config(pre string, c *Config) {
	d.lit(pre)
	d.str(`{"Benchmark":`, &c.Benchmark)
	d.str(`,"Trace":`, &c.Trace)
	d.i64(`,"Insts":`, &c.Insts)
	d.policy(`,"DPolicy":`, &c.DPolicy)
	d.policy(`,"IPolicy":`, &c.IPolicy)
	d.int(`,"SelectiveWays":`, &c.SelectiveWays)
	d.int(`,"DSize":`, &c.DSize)
	d.int(`,"DWays":`, &c.DWays)
	d.int(`,"DBlock":`, &c.DBlock)
	d.int(`,"ISize":`, &c.ISize)
	d.int(`,"IWays":`, &c.IWays)
	d.int(`,"IBlock":`, &c.IBlock)
	d.int(`,"DLatency":`, &c.DLatency)
	d.int(`,"TableSize":`, &c.TableSize)
	d.int(`,"VictimSize":`, &c.VictimSize)
	d.bool(`,"UsePaperCosts":`, &c.UsePaperCosts)
	d.coreConfig(`,"Core":`, &c.Core)
	d.lit("}")
}

func (d *decoder) coreConfig(pre string, c *pipeline.Config) {
	d.lit(pre)
	d.int(`{"FetchWidth":`, &c.FetchWidth)
	d.int(`,"IssueWidth":`, &c.IssueWidth)
	d.int(`,"CommitWidth":`, &c.CommitWidth)
	d.int(`,"ROBSize":`, &c.ROBSize)
	d.int(`,"LSQSize":`, &c.LSQSize)
	d.int(`,"DCachePorts":`, &c.DCachePorts)
	d.i64(`,"MaxInsts":`, &c.MaxInsts)
	d.lit("}")
}

func (d *decoder) pipelineStats(pre string, s *pipeline.Stats) {
	d.lit(pre)
	d.i64(`{"Cycles":`, &s.Cycles)
	d.i64(`,"Committed":`, &s.Committed)
	d.i64(`,"FetchGroups":`, &s.FetchGroups)
	d.i64(`,"Dispatched":`, &s.Dispatched)
	d.i64(`,"Issued":`, &s.Issued)
	d.i64(`,"Loads":`, &s.Loads)
	d.i64(`,"Stores":`, &s.Stores)
	d.i64(`,"Branches":`, &s.Branches)
	d.i64(`,"BranchMispred":`, &s.BranchMispred)
	d.i64(`,"RASMispred":`, &s.RASMispred)
	d.i64(`,"RegReads":`, &s.RegReads)
	d.i64(`,"RegWrites":`, &s.RegWrites)
	d.i64(`,"IntOps":`, &s.IntOps)
	d.i64(`,"FPOps":`, &s.FPOps)
	d.lit("}")
}

func (d *decoder) dStats(pre string, s *access.DStats) {
	d.lit(pre)
	d.i64(`{"Loads":`, &s.Loads)
	d.i64(`,"Stores":`, &s.Stores)
	d.i64s(`,"ByClass":[`, s.ByClass[:])
	d.i64(`,"LoadMiss":`, &s.LoadMiss)
	d.i64(`,"MispredDM":`, &s.MispredDM)
	d.i64(`,"MispredWay":`, &s.MispredWay)
	d.lit("}")
}

func (d *decoder) iStats(pre string, s *access.IStats) {
	d.lit(pre)
	d.i64(`{"Fetches":`, &s.Fetches)
	d.i64s(`,"ByClass":[`, s.ByClass[:])
	d.i64s(`,"BySource":[`, s.BySource[:])
	d.i64(`,"Misses":`, &s.Misses)
	d.lit("}")
}

func (d *decoder) account(pre string, a *energy.Account) {
	d.lit(pre)
	d.costs(`{"Costs":`, &a.Costs)
	d.i64(`,"ParallelReads":`, &a.ParallelReads)
	d.i64(`,"OneWayReads":`, &a.OneWayReads)
	d.i64(`,"TagOnlyReads":`, &a.TagOnlyReads)
	d.i64(`,"SecondProbes":`, &a.SecondProbes)
	d.i64(`,"Writes":`, &a.Writes)
	d.i64(`,"Fills":`, &a.Fills)
	d.i64(`,"TableAccesses":`, &a.TableAccesses)
	d.i64(`,"PartialWays":`, &a.PartialWays)
	d.lit("}")
}

func (d *decoder) costs(pre string, c *energy.Costs) {
	d.lit(pre)
	d.int(`{"Ways":`, &c.Ways)
	d.f64(`,"Tag":`, &c.Tag)
	d.f64(`,"WayParallel":`, &c.WayParallel)
	d.f64(`,"WaySolo":`, &c.WaySolo)
	d.f64(`,"WriteWay":`, &c.WriteWay)
	d.f64(`,"Table":`, &c.Table)
	d.lit("}")
}

func (d *decoder) cacheStats(pre string, s *cache.Stats) {
	d.lit(pre)
	d.i64(`{"Accesses":`, &s.Accesses)
	d.i64(`,"Hits":`, &s.Hits)
	d.i64(`,"Misses":`, &s.Misses)
	d.i64(`,"Evictions":`, &s.Evictions)
	d.i64(`,"Dirty":`, &s.Dirty)
	d.lit("}")
}

func (d *decoder) hierarchyStats(pre string, s *cache.HierarchyStats) {
	d.lit(pre)
	d.i64(`{"L2Accesses":`, &s.L2Accesses)
	d.i64(`,"L2Hits":`, &s.L2Hits)
	d.i64(`,"L2Misses":`, &s.L2Misses)
	d.i64(`,"MemAccesses":`, &s.MemAccesses)
	d.i64(`,"Writebacks":`, &s.Writebacks)
	d.i64(`,"L2Writebacks":`, &s.L2Writebacks)
	d.lit("}")
}

func (d *decoder) breakdown(pre string, b *wattch.Breakdown) {
	d.lit(pre)
	d.f64(`{"Clock":`, &b.Clock)
	d.f64(`,"Frontend":`, &b.Frontend)
	d.f64(`,"Rename":`, &b.Rename)
	d.f64(`,"Window":`, &b.Window)
	d.f64(`,"Regfile":`, &b.Regfile)
	d.f64(`,"FU":`, &b.FU)
	d.f64(`,"LSQ":`, &b.LSQ)
	d.f64(`,"L1I":`, &b.L1I)
	d.f64(`,"L1D":`, &b.L1D)
	d.f64(`,"L2":`, &b.L2)
	d.lit("}")
}
