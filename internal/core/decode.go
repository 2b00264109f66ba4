package core

// Result decoding: a one-pass reader over the JSON that EncodeResult
// writes. Every stored result is decoded whenever a corpus is rebuilt from
// the store, so decoding is the bulk of a server's cold start; the reader
// decodes a canonical payload without reflection, allocating only the
// Result and its strings.
//
// The reader's semantics are encoding/json's, not a dialect of them. It
// accepts only input it can decode exactly as json.Unmarshal into a Result
// would, and it stops at the first byte it cannot vouch for: a syntax
// error, a value of the wrong type, a number out of range, an escaped or
// invalid-UTF-8 string, a key that matches a field only case-insensitively.
// DecodeResult then hands the whole payload to encoding/json, which
// decides. Canonical payloads never take that path (TestDecodeResultAllocs
// would count its allocations), and FuzzDecodeResult checks the two
// decoders against each other.

import (
	"encoding/json"
	"math"
	"reflect"
	"strconv"
	"strings"
	"unicode/utf8"

	"waycache/internal/access"
	"waycache/internal/cache"
	"waycache/internal/energy"
	"waycache/internal/pipeline"
	"waycache/internal/wattch"
)

// maxSkipDepth bounds the nesting the reader follows inside a value it
// skips. encoding/json rejects input nested more than 10,000 levels deep;
// staying far below that keeps every input the reader accepts one json
// accepts too, and deeper input is left to json.
const maxSkipDepth = 1000

// resultFieldNames lists the JSON-visible field names of Result and of
// every struct inside it. encoding/json matches an object key to a field
// case-insensitively (under Unicode folding) when no name matches exactly,
// so a key the reader does not know but that folds to any of these is
// left to json.
var resultFieldNames = fieldNames(reflect.TypeOf(Result{}), nil)

func fieldNames(t reflect.Type, names []string) []string {
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("json") == "-" {
			continue
		}
		names = append(names, f.Name)
		ft := f.Type
		for ft.Kind() == reflect.Array {
			ft = ft.Elem()
		}
		if ft.Kind() == reflect.Struct {
			names = fieldNames(ft, names)
		}
	}
	return names
}

// decoder reads one Result. Its methods decode one value each in place,
// as encoding/json does: null leaves the destination unchanged, a repeated
// key decodes again into the same destination, and an unknown key's value
// is skipped.
type decoder struct {
	data []byte
	pos  int
	// ok is cleared at the first input the reader cannot decode exactly as
	// encoding/json would; fail also moves pos to the end, so every later
	// read stops at once.
	ok bool
	// last is the most recently decoded string. Result.Benchmark and
	// Config.Benchmark hold the same name, so the second reuses the first.
	last string
}

// decodeResult decodes data into r and reports whether it could vouch for
// the result. On false, r holds partial data.
func decodeResult(data []byte, r *Result) bool {
	d := decoder{data: data, ok: true}
	d.result(r)
	d.ws()
	return d.ok && d.pos == len(d.data)
}

func (d *decoder) fail() {
	d.ok = false
	d.pos = len(d.data)
}

// ws skips JSON whitespace.
func (d *decoder) ws() {
	for d.pos < len(d.data) && isSpace[d.data[d.pos]] {
		d.pos++
	}
}

// isSpace marks JSON whitespace; plainChar the bytes a string literal may
// hold unescaped, apart from its closing quote.
var isSpace, plainChar = func() (space, plain [256]bool) {
	space[' '], space['\t'], space['\n'], space['\r'] = true, true, true, true
	for c := 0x20; c < 256; c++ {
		plain[c] = c != '"' && c != '\\'
	}
	return space, plain
}()

// peek skips whitespace and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	d.ws()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// literal consumes lit (true, false or null).
func (d *decoder) literal(lit string) {
	if end := d.pos + len(lit); end <= len(d.data) && string(d.data[d.pos:end]) == lit {
		d.pos = end
		return
	}
	d.fail()
}

// null consumes a null if one comes next.
func (d *decoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// open consumes the bracket that starts an object or array and reports
// whether a member follows; an empty object or array is consumed whole.
func (d *decoder) open(start, end byte) bool {
	if d.peek() != start {
		d.fail()
		return false
	}
	d.pos++
	if d.peek() == end {
		d.pos++
		return false
	}
	return true
}

// more consumes the comma before another member and reports true, or the
// closing bracket and reports false.
func (d *decoder) more(end byte) bool {
	switch d.peek() {
	case ',':
		d.pos++
		return true
	case end:
		d.pos++
		return false
	}
	d.fail()
	return false
}

// object opens a struct-valued field: false for null, which leaves the
// struct unchanged, and for an empty object.
func (d *decoder) object() bool { return !d.null() && d.open('{', '}') }

// quoted consumes a string literal, checking its escapes, and returns its
// raw contents and whether any escape occurred.
func (d *decoder) quoted() (raw []byte, escaped bool) {
	if d.peek() != '"' {
		d.fail()
		return nil, false
	}
	b, start := d.data, d.pos+1
	for i := start; i < len(b); i++ {
		if plainChar[b[i]] {
			continue
		}
		switch c := b[i]; {
		case c == '"':
			d.pos = i + 1
			return b[start:i], escaped
		case c < 0x20:
			d.fail()
			return nil, false
		case c == '\\':
			escaped = true
			i++
			if i == len(b) {
				d.fail()
				return nil, false
			}
			switch b[i] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if i+4 >= len(b) || !isHex(b[i+1]) || !isHex(b[i+2]) || !isHex(b[i+3]) || !isHex(b[i+4]) {
					d.fail()
					return nil, false
				}
				i += 4
			default:
				d.fail()
				return nil, false
			}
		}
	}
	d.fail()
	return nil, false
}

func isHex(c byte) bool {
	return '0' <= c && c <= '9' || 'a' <= c && c <= 'f' || 'A' <= c && c <= 'F'
}

// key reads a member's key and the colon after it. encoding/json matches
// an escaped key after unescaping it, so those are left to json.
func (d *decoder) key() []byte {
	k, escaped := d.quoted()
	if escaped || d.peek() != ':' {
		d.fail()
		return nil
	}
	d.pos++
	return k
}

// unknown skips the value of a key no field has here. A key that folds to
// any field name might match one case-insensitively in json.
func (d *decoder) unknown(key []byte) {
	for _, name := range resultFieldNames {
		if strings.EqualFold(string(key), name) {
			d.fail()
			return
		}
	}
	d.skip(0)
}

// skip consumes one value of any JSON type, checking its syntax.
func (d *decoder) skip(depth int) {
	switch d.peek() {
	case '{', '[':
		if depth == maxSkipDepth {
			d.fail()
			return
		}
		start, end := d.data[d.pos], byte('}')
		if start == '[' {
			end = ']'
		}
		for more := d.open(start, end); more; more = d.more(end) {
			if start == '{' {
				d.quoted()
				if d.peek() != ':' {
					d.fail()
					return
				}
				d.pos++
			}
			d.skip(depth + 1)
		}
	case '"':
		d.quoted()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.number()
	}
}

// number consumes a number literal and reports whether it is an integer
// (no fraction or exponent). It checks the JSON grammar itself: strconv
// also takes "+1", "0x1p3", "inf" and "1_0", which JSON does not.
func (d *decoder) number() (tok []byte, integer bool) {
	d.ws()
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
func (d *decoder) i64(p *int64) {
	if d.null() {
		return
	}
	tok, integer := d.number()
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
func (d *decoder) int(p *int) {
	v := int64(*p)
	d.i64(&v)
	if int64(int(v)) != v {
		d.fail()
		return
	}
	*p = int(v)
}

// f64 decodes a float field. ParseFloat fails out of range ("1e400"), and
// so does json.
func (d *decoder) f64(p *float64) {
	if d.null() {
		return
	}
	tok, _ := d.number()
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

func (d *decoder) bool(p *bool) {
	switch d.peek() {
	case 'n':
		d.literal("null")
	case 't':
		d.literal("true")
		*p = true
	case 'f':
		d.literal("false")
		*p = false
	default:
		d.fail()
	}
}

// str decodes a string field. json replaces invalid UTF-8 and unescapes;
// both are left to it.
func (d *decoder) str(p *string) {
	if d.null() {
		return
	}
	raw, escaped := d.quoted()
	if !d.ok || escaped || !utf8.Valid(raw) {
		d.fail()
		return
	}
	if string(raw) != d.last {
		d.last = string(raw)
	}
	*p = d.last
}

// i64s decodes a JSON array into a fixed-size Go array. Like json it
// skips elements past the end and zeroes those a shorter array leaves.
func (d *decoder) i64s(a []int64) {
	if d.null() {
		return
	}
	i := 0
	for more := d.open('[', ']'); more; more = d.more(']') {
		if i < len(a) {
			d.i64(&a[i])
		} else {
			d.skip(0)
		}
		i++
	}
	if i < len(a) {
		clear(a[i:])
	}
}

// policy hands a policy's raw value to its own UnmarshalJSON, as json does,
// so names, legacy integers and the rejection of null behave alike.
func (d *decoder) policy(u json.Unmarshaler) {
	d.ws()
	start := d.pos
	d.skip(0)
	if d.ok && u.UnmarshalJSON(d.data[start:d.pos]) != nil {
		d.fail()
	}
}

func (d *decoder) result(r *Result) {
	for more := d.open('{', '}'); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "Benchmark":
			d.str(&r.Benchmark)
		case "Config":
			d.config(&r.Config)
		case "Pipeline":
			d.pipelineStats(&r.Pipeline)
		case "DStats":
			d.dStats(&r.DStats)
		case "IStats":
			d.iStats(&r.IStats)
		case "DAcct":
			d.account(&r.DAcct)
		case "IAcct":
			d.account(&r.IAcct)
		case "DL1":
			d.cacheStats(&r.DL1)
		case "IL1":
			d.cacheStats(&r.IL1)
		case "Hier":
			d.hierarchyStats(&r.Hier)
		case "Power":
			d.breakdown(&r.Power)
		default:
			d.unknown(k)
		}
	}
}

func (d *decoder) config(c *Config) {
	for more := d.object(); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "Benchmark":
			d.str(&c.Benchmark)
		case "Trace":
			d.str(&c.Trace)
		case "Insts":
			d.i64(&c.Insts)
		case "DPolicy":
			d.policy(&c.DPolicy)
		case "IPolicy":
			d.policy(&c.IPolicy)
		case "SelectiveWays":
			d.int(&c.SelectiveWays)
		case "DSize":
			d.int(&c.DSize)
		case "DWays":
			d.int(&c.DWays)
		case "DBlock":
			d.int(&c.DBlock)
		case "ISize":
			d.int(&c.ISize)
		case "IWays":
			d.int(&c.IWays)
		case "IBlock":
			d.int(&c.IBlock)
		case "DLatency":
			d.int(&c.DLatency)
		case "TableSize":
			d.int(&c.TableSize)
		case "VictimSize":
			d.int(&c.VictimSize)
		case "UsePaperCosts":
			d.bool(&c.UsePaperCosts)
		case "Core":
			d.coreConfig(&c.Core)
		default:
			d.unknown(k)
		}
	}
}

func (d *decoder) coreConfig(c *pipeline.Config) {
	for more := d.object(); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "FetchWidth":
			d.int(&c.FetchWidth)
		case "IssueWidth":
			d.int(&c.IssueWidth)
		case "CommitWidth":
			d.int(&c.CommitWidth)
		case "ROBSize":
			d.int(&c.ROBSize)
		case "LSQSize":
			d.int(&c.LSQSize)
		case "DCachePorts":
			d.int(&c.DCachePorts)
		case "MaxInsts":
			d.i64(&c.MaxInsts)
		default:
			d.unknown(k)
		}
	}
}

func (d *decoder) pipelineStats(s *pipeline.Stats) {
	for more := d.object(); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "Cycles":
			d.i64(&s.Cycles)
		case "Committed":
			d.i64(&s.Committed)
		case "FetchGroups":
			d.i64(&s.FetchGroups)
		case "Dispatched":
			d.i64(&s.Dispatched)
		case "Issued":
			d.i64(&s.Issued)
		case "Loads":
			d.i64(&s.Loads)
		case "Stores":
			d.i64(&s.Stores)
		case "Branches":
			d.i64(&s.Branches)
		case "BranchMispred":
			d.i64(&s.BranchMispred)
		case "RASMispred":
			d.i64(&s.RASMispred)
		case "RegReads":
			d.i64(&s.RegReads)
		case "RegWrites":
			d.i64(&s.RegWrites)
		case "IntOps":
			d.i64(&s.IntOps)
		case "FPOps":
			d.i64(&s.FPOps)
		default:
			d.unknown(k)
		}
	}
}

func (d *decoder) dStats(s *access.DStats) {
	for more := d.object(); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "Loads":
			d.i64(&s.Loads)
		case "Stores":
			d.i64(&s.Stores)
		case "ByClass":
			d.i64s(s.ByClass[:])
		case "LoadMiss":
			d.i64(&s.LoadMiss)
		case "MispredDM":
			d.i64(&s.MispredDM)
		case "MispredWay":
			d.i64(&s.MispredWay)
		default:
			d.unknown(k)
		}
	}
}

func (d *decoder) iStats(s *access.IStats) {
	for more := d.object(); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "Fetches":
			d.i64(&s.Fetches)
		case "ByClass":
			d.i64s(s.ByClass[:])
		case "BySource":
			d.i64s(s.BySource[:])
		case "Misses":
			d.i64(&s.Misses)
		default:
			d.unknown(k)
		}
	}
}

func (d *decoder) account(a *energy.Account) {
	for more := d.object(); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "Costs":
			d.costs(&a.Costs)
		case "ParallelReads":
			d.i64(&a.ParallelReads)
		case "OneWayReads":
			d.i64(&a.OneWayReads)
		case "TagOnlyReads":
			d.i64(&a.TagOnlyReads)
		case "SecondProbes":
			d.i64(&a.SecondProbes)
		case "Writes":
			d.i64(&a.Writes)
		case "Fills":
			d.i64(&a.Fills)
		case "TableAccesses":
			d.i64(&a.TableAccesses)
		case "PartialWays":
			d.i64(&a.PartialWays)
		default:
			d.unknown(k)
		}
	}
}

func (d *decoder) costs(c *energy.Costs) {
	for more := d.object(); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "Ways":
			d.int(&c.Ways)
		case "Tag":
			d.f64(&c.Tag)
		case "WayParallel":
			d.f64(&c.WayParallel)
		case "WaySolo":
			d.f64(&c.WaySolo)
		case "WriteWay":
			d.f64(&c.WriteWay)
		case "Table":
			d.f64(&c.Table)
		default:
			d.unknown(k)
		}
	}
}

func (d *decoder) cacheStats(s *cache.Stats) {
	for more := d.object(); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "Accesses":
			d.i64(&s.Accesses)
		case "Hits":
			d.i64(&s.Hits)
		case "Misses":
			d.i64(&s.Misses)
		case "Evictions":
			d.i64(&s.Evictions)
		case "Dirty":
			d.i64(&s.Dirty)
		default:
			d.unknown(k)
		}
	}
}

func (d *decoder) hierarchyStats(s *cache.HierarchyStats) {
	for more := d.object(); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "L2Accesses":
			d.i64(&s.L2Accesses)
		case "L2Hits":
			d.i64(&s.L2Hits)
		case "L2Misses":
			d.i64(&s.L2Misses)
		case "MemAccesses":
			d.i64(&s.MemAccesses)
		case "Writebacks":
			d.i64(&s.Writebacks)
		case "L2Writebacks":
			d.i64(&s.L2Writebacks)
		default:
			d.unknown(k)
		}
	}
}

func (d *decoder) breakdown(b *wattch.Breakdown) {
	for more := d.object(); more; more = d.more('}') {
		switch k := d.key(); string(k) {
		case "Clock":
			d.f64(&b.Clock)
		case "Frontend":
			d.f64(&b.Frontend)
		case "Rename":
			d.f64(&b.Rename)
		case "Window":
			d.f64(&b.Window)
		case "Regfile":
			d.f64(&b.Regfile)
		case "FU":
			d.f64(&b.FU)
		case "LSQ":
			d.f64(&b.LSQ)
		case "L1I":
			d.f64(&b.L1I)
		case "L1D":
			d.f64(&b.L1D)
		case "L2":
			d.f64(&b.L2)
		default:
			d.unknown(k)
		}
	}
}
