package trace

// Trace files: a versioned, varint-delta-compressed binary encoding of
// Inst streams, so sweeps and experiments can replay captured workloads
// instead of re-walking the synthetic generators (and so external tools
// can feed the simulator recorded streams of their own). The byte-level
// format is specified in docs/TRACE_FORMAT.md; Writer and the decoder
// the Arena reads whole files through are the canonical implementations
// of that spec.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"waycache/internal/isa"
)

// Magic identifies a waycache trace file. It is followed by a one-byte
// format version.
const Magic = "WCTR"

// FormatVersion is the record-encoding version this package writes.
// Readers accept exactly this version: the version byte governs the
// record encoding, while header fields are tagged and length-prefixed so
// adding header fields does not require a version bump (old readers skip
// tags they do not know).
const FormatVersion = 1

// FileExt is the conventional extension for captured trace files.
const FileExt = ".wct"

// Header describes a captured trace. It is written after the magic and
// version and returned by ReadHeader and MemSource.Header.
type Header struct {
	// Benchmark names the workload the trace was captured from (empty or
	// "custom" for non-suite sources).
	Benchmark string
	// Seed is the workload seed the capture ran with. Replay consumers
	// compare it against the generator's current seed to verify a trace
	// still mirrors the workload it claims to.
	Seed uint64
	// Insts is the number of records in the file; 0 means unknown (the
	// reader then consumes records until EOF).
	Insts int64
}

// Header field tags. Each field is a uvarint tag, a uvarint payload
// length, and the payload, so readers skip tags they do not understand.
const (
	tagBenchmark = 1 // payload: UTF-8 name
	tagSeed      = 2 // payload: uvarint
	tagInsts     = 3 // payload: uvarint
)

// Record opcode layout (one byte): the low nibble is the isa.Kind, the
// high bits flag optional fields. Flag bits that are meaningless for a
// record's kind must be zero; readers reject records that set them, which
// turns most corruption into a clean error instead of a silently skewed
// simulation.
const (
	opKindMask  = 0x0f
	opPCDelta   = 0x10 // PC differs from the previous record's fall-through
	opTaken     = 0x20 // control transfer taken (control kinds only)
	opRegs      = 0x40 // Dst/Src1/Src2 bytes follow
	opBaseValue = 0x80 // explicit BaseValue delta follows (memory kinds only)
)

// headerFieldCap bounds header field payloads (and the field count) so a
// corrupt length prefix cannot drive a huge allocation.
const headerFieldCap = 1 << 20

func zigzagEncode(v int64) uint64 { return uint64(v<<1) ^ uint64(v>>63) }
func zigzagDecode(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// Writer streams Inst records into the trace file format. Records are
// delta-compressed against decoder-reconstructible state (previous PC
// fall-through, previous memory address), so a well-formed stream costs a
// few bytes per instruction.
type Writer struct {
	w        *bufio.Writer
	h        Header
	written  int64
	nextPC   uint64 // expected PC of the next record
	prevAddr uint64
	buf      []byte // per-record scratch, reused across Write calls
	err      error
	closed   bool
}

// NewWriter writes the magic, version and header for h to w and returns a
// Writer appending records to it. If h.Insts is positive, Close verifies
// exactly that many records were written.
func NewWriter(w io.Writer, h Header) (*Writer, error) {
	if h.Insts < 0 {
		return nil, fmt.Errorf("trace: negative instruction count %d", h.Insts)
	}
	bw := bufio.NewWriter(w)
	if err := writeHeader(bw, h); err != nil {
		return nil, err
	}
	return &Writer{w: bw, h: h}, nil
}

func writeHeader(bw *bufio.Writer, h Header) error {
	fields := []struct {
		tag     uint64
		payload []byte
	}{
		{tagBenchmark, []byte(h.Benchmark)},
		{tagSeed, binary.AppendUvarint(nil, h.Seed)},
		{tagInsts, binary.AppendUvarint(nil, uint64(h.Insts))},
	}
	buf := make([]byte, 0, 64)
	buf = append(buf, Magic...)
	buf = append(buf, FormatVersion)
	buf = binary.AppendUvarint(buf, uint64(len(fields)))
	for _, f := range fields {
		buf = binary.AppendUvarint(buf, f.tag)
		buf = binary.AppendUvarint(buf, uint64(len(f.payload)))
		buf = append(buf, f.payload...)
	}
	_, err := bw.Write(buf)
	return err
}

// Write appends one instruction record.
func (w *Writer) Write(in *Inst) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("trace: write after Close")
	}
	if int(in.Kind) >= isa.NumKinds {
		w.err = fmt.Errorf("trace: invalid instruction kind %d", in.Kind)
		return w.err
	}
	// The format only persists the payload fields meaningful for the
	// record's kind; reject records carrying anything it would drop, so a
	// successful capture is guaranteed to round-trip losslessly.
	switch {
	case in.Kind.IsMem():
		if in.Taken || in.Target != 0 {
			w.err = fmt.Errorf("trace: memory record %d (%s) carries control payload", w.written, in.Kind)
			return w.err
		}
	case in.Kind.IsControl():
		if in.Addr != 0 || in.BaseValue != 0 || in.Offset != 0 {
			w.err = fmt.Errorf("trace: control record %d (%s) carries memory payload", w.written, in.Kind)
			return w.err
		}
	default:
		if in.Taken || in.Target != 0 || in.Addr != 0 || in.BaseValue != 0 || in.Offset != 0 {
			w.err = fmt.Errorf("trace: compute record %d (%s) carries memory or control payload", w.written, in.Kind)
			return w.err
		}
	}
	op := byte(in.Kind)
	b := append(w.buf[:0], 0) // opcode placeholder
	if in.PC != w.nextPC {
		op |= opPCDelta
		b = binary.AppendUvarint(b, zigzagEncode(int64(in.PC-w.nextPC)))
	}
	if in.Dst != isa.RegZero || in.Src1 != isa.RegZero || in.Src2 != isa.RegZero {
		op |= opRegs
		b = append(b, byte(in.Dst), byte(in.Src1), byte(in.Src2))
	}
	switch {
	case in.Kind.IsMem():
		b = binary.AppendUvarint(b, zigzagEncode(int64(in.Addr-w.prevAddr)))
		b = binary.AppendUvarint(b, zigzagEncode(int64(in.Offset)))
		// BaseValue normally satisfies Addr == BaseValue + offset and
		// costs nothing; streams that break the invariant store it
		// explicitly so the round trip stays lossless.
		if in.Addr-uint64(int64(in.Offset)) != in.BaseValue {
			op |= opBaseValue
			b = binary.AppendUvarint(b, zigzagEncode(int64(in.BaseValue-in.Addr)))
		}
		w.prevAddr = in.Addr
	case in.Kind.IsControl():
		if in.Taken {
			op |= opTaken
		}
		b = binary.AppendUvarint(b, zigzagEncode(int64(in.Target-in.PC)))
	}
	b[0] = op
	w.buf = b
	if _, err := w.w.Write(b); err != nil {
		w.err = err
		return err
	}
	w.nextPC = in.PC + isa.InstBytes
	w.written++
	return nil
}

// Written returns the number of records written so far.
func (w *Writer) Written() int64 { return w.written }

// Close flushes buffered records and verifies the declared instruction
// count. It does not close the underlying writer.
func (w *Writer) Close() error {
	if w.closed {
		return w.err
	}
	w.closed = true
	if ferr := w.w.Flush(); w.err == nil {
		w.err = ferr
	}
	if w.err == nil && w.h.Insts > 0 && w.written != w.h.Insts {
		w.err = fmt.Errorf("trace: header declares %d instructions, wrote %d", w.h.Insts, w.written)
	}
	return w.err
}

// ReadHeader returns the header of the trace file at path without
// reading its records: the probe callers use to vet a capture before
// replaying it through an Arena. A header error is prefixed with the
// path; an error opening the file is returned as os.Open reports it.
func ReadHeader(path string) (Header, error) {
	f, err := os.Open(path)
	if err != nil {
		return Header{}, err
	}
	defer f.Close()
	h, err := readHeader(bufio.NewReader(f))
	if err != nil {
		return Header{}, fmt.Errorf("%s: %w", path, err)
	}
	return h, nil
}

// splitHeader parses the header at the head of a whole file's bytes and
// returns it with the record bytes that follow it.
func splitHeader(data []byte) (Header, []byte, error) {
	rd := bytes.NewReader(data)
	br := bufio.NewReader(rd)
	h, err := readHeader(br)
	return h, data[len(data)-rd.Len()-br.Buffered():], err
}

// readHeader parses the magic, version and header fields from the head
// of br.
func readHeader(br *bufio.Reader) (Header, error) {
	var h Header
	prefix := make([]byte, len(Magic)+1)
	if _, err := io.ReadFull(br, prefix); err != nil {
		return h, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(prefix[:len(Magic)]) != Magic {
		return h, fmt.Errorf("trace: bad magic %q (not a trace file)", prefix[:len(Magic)])
	}
	if v := prefix[len(Magic)]; v != FormatVersion {
		return h, fmt.Errorf("trace: unsupported format version %d (reader speaks %d)", v, FormatVersion)
	}
	nfields, err := binary.ReadUvarint(br)
	if err != nil || nfields > headerFieldCap {
		return h, fmt.Errorf("trace: corrupt header field count")
	}
	for i := uint64(0); i < nfields; i++ {
		tag, err := binary.ReadUvarint(br)
		if err != nil {
			return h, fmt.Errorf("trace: corrupt header field tag: %w", err)
		}
		plen, err := binary.ReadUvarint(br)
		if err != nil || plen > headerFieldCap {
			return h, fmt.Errorf("trace: corrupt header field length")
		}
		payload := make([]byte, plen)
		if _, err := io.ReadFull(br, payload); err != nil {
			return h, fmt.Errorf("trace: truncated header field: %w", err)
		}
		switch tag {
		case tagBenchmark:
			h.Benchmark = string(payload)
		case tagSeed:
			v, n := binary.Uvarint(payload)
			if n <= 0 {
				return h, fmt.Errorf("trace: corrupt seed field")
			}
			h.Seed = v
		case tagInsts:
			v, n := binary.Uvarint(payload)
			if n <= 0 || v > math.MaxInt64 {
				return h, fmt.Errorf("trace: corrupt instruction-count field")
			}
			h.Insts = int64(v)
		default:
			// Unknown field from a newer writer: skipped by construction.
		}
	}
	return h, nil
}

// errVarintOverflow is the text binary.ReadUvarint reports for a varint
// longer than 64 bits.
var errVarintOverflow = errors.New("binary: varint overflows a 64-bit integer")

// decoder is the state of one record stream: the declared count, the
// records decoded so far, the delta bases, the escape table and the first
// error. The arena decodes a whole file through it into records
// (packed.go).
type decoder struct {
	declared int64 // Header.Insts; 0 means read to end of input
	read     int64
	nextPC   uint64 // expected PC of the next record
	prevAddr uint64
	esc      []Inst // the instructions escaped records index
	err      error
}

// done reports whether the stream is over: an error was recorded or the
// declared count was reached (trailing bytes are left unread).
func (d *decoder) done() bool {
	return d.err != nil || d.declared > 0 && d.read >= d.declared
}

// next decodes records from the head of b, the rest of the file, into
// out — up to len(out) of them, stopping early at the end of the stream
// or on error (see d.err) — and returns how many it decoded and the bytes
// they occupy. The arena decodes a run at a time, which keeps the delta
// bases in registers across the run. TestDecodeErrorTexts pins the error
// each kind of corruption gives.
//
//wclint:hotpath
func (d *decoder) next(b []byte, out []record) (k, used int) {
	nextPC, prevAddr := d.nextPC, d.prevAddr // the delta bases, in registers
records:
	for ; k < len(out) && !d.done(); k++ {
		if len(b) == 0 {
			d.stop()
			break records
		}
		op := b[0]
		kind := isa.Kind(op & opKindMask)
		if int(kind) >= isa.NumKinds {
			d.badOp(op)
			break records
		}
		r := record{pc: nextPC}
		kb := byte(kind) // the record's kind byte
		var dst, src1, src2 isa.Reg
		n := 1
		var v int64
		var ok bool
		if op&opPCDelta != 0 {
			if v, ok = byteVarint(b, n); ok {
				n++
			} else if v, n = varintAt(b, n); n <= 0 {
				d.badVarint("pc delta", n)
				break records
			}
			r.pc += uint64(v)
		}
		if op&opRegs != 0 {
			if len(b)-n < 3 {
				d.badRegs(len(b) - n)
				break records
			}
			dst, src1, src2 = isa.Reg(b[n]), isa.Reg(b[n+1]), isa.Reg(b[n+2])
			n += 3
		}
		switch {
		case kind.IsMem():
			if op&opTaken != 0 {
				d.badOp(op)
				break records
			}
			if v, n = varintAt(b, n); n <= 0 {
				d.badVarint("address delta", n)
				break records
			}
			r.payload = prevAddr + uint64(v)
			if v, ok = byteVarint(b, n); ok {
				n++
			} else if v, n = varintAt(b, n); n <= 0 {
				d.badVarint("offset", n)
				break records
			}
			if v < math.MinInt32 || v > math.MaxInt32 {
				d.badOffset(v)
				break records
			}
			r.off = int32(v)
			kb |= recMem
			prevAddr = r.payload
			if op&opBaseValue != 0 {
				if v, n = varintAt(b, n); n <= 0 {
					d.badVarint("base value delta", n)
					break records
				}
				kb |= recEscape
				r.payload = d.escape(Inst{
					PC: r.pc, Kind: kind, Dst: dst, Src1: src1, Src2: src2,
					Addr: r.payload, BaseValue: r.payload + uint64(v), Offset: r.off,
				})
			}
		case kind.IsControl():
			if op&opBaseValue != 0 {
				d.badOp(op)
				break records
			}
			if v, ok = byteVarint(b, n); ok {
				n++
			} else if v, n = varintAt(b, n); n <= 0 {
				d.badVarint("target delta", n)
				break records
			}
			r.payload = r.pc + uint64(v)
			if op&opTaken != 0 {
				kb |= recTaken
			}
		default:
			if op&(opTaken|opBaseValue) != 0 {
				d.badOp(op)
				break records
			}
		}
		r.meta = packMeta(kb, dst, src1, src2)
		nextPC = r.pc + isa.InstBytes
		d.read++
		out[k] = r
		b = b[n:]
		used += n
	}
	d.nextPC, d.prevAddr = nextPC, prevAddr
	return k, used
}

// byteVarint decodes the zigzag varint at b[n] if it is one byte long,
// which most PC deltas, offsets and target deltas are: next inlines it
// before falling back to varintAt.
func byteVarint(b []byte, n int) (int64, bool) {
	if uint(n) < uint(len(b)) && b[n] < 0x80 {
		return zigzagDecode(uint64(b[n])), true
	}
	return 0, false
}

// varintAt decodes the zigzag varint at b[n:], returning it and the
// offset just past it. The offset is 0 when b ends inside the varint and
// -1 when the varint is longer than 64 bits.
func varintAt(b []byte, n int) (int64, int) {
	u, m := binary.Uvarint(b[n:])
	switch {
	case m > 0:
		return zigzagDecode(u), n + m
	case m == 0 && len(b)-n < binary.MaxVarintLen64:
		return 0, 0
	}
	return 0, -1
}

// The error paths of next, kept out of the hot path.

// stop ends the stream at the end of the file, a record boundary:
// cleanly unless the header declared more records. Like the other error
// paths it stays out of line, or its boxing would move into next.
//
//go:noinline
func (d *decoder) stop() {
	if d.declared > 0 {
		d.fail("file ends after %d of %d declared records", d.read, d.declared)
	}
}

// badOp reports an opcode with an invalid kind or a flag bit meaningless
// for its kind.
func (d *decoder) badOp(op byte) {
	kind := isa.Kind(op & opKindMask)
	switch {
	case int(kind) >= isa.NumKinds:
		d.fail("invalid kind %d", kind)
	case kind.IsMem():
		d.fail("taken flag on memory kind %s", kind)
	case kind.IsControl():
		d.fail("base-value flag on control kind %s", kind)
	default:
		d.fail("payload flags %#x on compute kind %s", op&(opTaken|opBaseValue), kind)
	}
}

// badVarint reports a varint field that the end of the file cuts short
// (state 0), even before the field's first byte, or that overflows 64
// bits (state -1).
//
//go:noinline
func (d *decoder) badVarint(field string, state int) {
	err := errVarintOverflow
	if state == 0 {
		err = io.ErrUnexpectedEOF
	}
	d.fail("%s: %v", field, err)
}

// badRegs reports register bytes that the end of the file cuts short
// after have of the three, with io.ReadFull's errors: io.EOF when none
// are present, io.ErrUnexpectedEOF when some are.
//
//go:noinline
func (d *decoder) badRegs(have int) {
	err := io.EOF
	if have > 0 {
		err = io.ErrUnexpectedEOF
	}
	d.fail("registers: %v", err)
}

// badOffset reports a memory offset outside int32. It is small enough to
// inline, which would move its boxing of off into next.
//
//go:noinline
func (d *decoder) badOffset(off int64) {
	d.fail("offset %d outside int32", off)
}

// escape appends in, a memory record whose explicit base value breaks
// the Addr - Offset invariant a packed record implies, to the escape
// table and returns its index. It keeps the rare path's append out of
// next.
//
//go:noinline
func (d *decoder) escape(in Inst) uint64 {
	d.esc = append(d.esc, in)
	return uint64(len(d.esc) - 1)
}

func (d *decoder) fail(format string, args ...any) {
	d.err = fmt.Errorf("trace: record %d: %s", d.read, fmt.Sprintf(format, args...))
}

// Capture streams instructions from src into the trace format on w: h.Insts
// of them when positive (erroring if src runs dry first, via the Writer's
// declared-count check), or all of src when h.Insts is 0. It returns the
// number of records written. Sources like the workload walkers are
// infinite, so captures from them must declare a count.
func Capture(w io.Writer, h Header, src Source) (int64, error) {
	tw, err := NewWriter(w, h)
	if err != nil {
		return 0, err
	}
	var in Inst
	for h.Insts == 0 || tw.Written() < h.Insts {
		if !src.Next(&in) {
			break
		}
		if err := tw.Write(&in); err != nil {
			return tw.Written(), err
		}
	}
	return tw.Written(), tw.Close()
}

// CaptureFile captures to a file at path, creating or truncating it. On
// error the partial file is removed.
func CaptureFile(path string, h Header, src Source) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := Capture(f, h, src); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(path)
		return err
	}
	return nil
}
