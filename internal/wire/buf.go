package wire

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"
	"math/bits"
	"reflect"

	"repro/internal/core"
)

// castagnoli is the CRC-32C table; hash/crc32 computes it with the CPU's
// CRC instructions on amd64 and arm64.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// sealLen is the length of the seal trailer: the CRC-32C of everything
// before it, little-endian.
const sealLen = 4

// headerLen is the magic and version every message opens with.
const headerLen = 4 + 2

// writer accumulates a message body; seal appends the CRC-32C seal of
// everything written.
type writer struct {
	b []byte
}

// newWriter starts a message of at most size bytes, seal included, with its
// magic and version written: the encoders size each message from its
// content, so the buffer is allocated once and never regrown.
func newWriter(magic [4]byte, size int) *writer {
	w := &writer{b: make([]byte, 0, size)}
	w.raw(magic[:])
	w.u16(Version)
	return w
}

// uvLen and ivLen are the encoded lengths of w.uv(v) and w.iv(v), for the
// encoders' size counts.
func uvLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

func ivLen(v int64) int { return uvLen(uint64(v<<1) ^ uint64(v>>63)) }

func (w *writer) raw(p []byte) { w.b = append(w.b, p...) }
func (w *writer) u8(v byte)    { w.b = append(w.b, v) }

func (w *writer) u16(v uint16) {
	w.b = binary.LittleEndian.AppendUint16(w.b, v)
}

func (w *writer) uv(v uint64) {
	w.b = binary.AppendUvarint(w.b, v)
}

func (w *writer) iv(v int64) {
	w.b = binary.AppendVarint(w.b, v)
}

// f64 writes the IEEE-754 bit pattern verbatim: the codec never passes a
// float through arithmetic or text, which is what makes round-trips bitwise.
func (w *writer) f64(v float64) {
	w.b = binary.LittleEndian.AppendUint64(w.b, math.Float64bits(v))
}

func (w *writer) bool(v bool) {
	if v {
		w.u8(1)
	} else {
		w.u8(0)
	}
}

func (w *writer) str(s string) {
	w.uv(uint64(len(s)))
	w.b = append(w.b, s...)
}

// seal appends the seal trailer and returns the finished message.
func (w *writer) seal() []byte {
	return binary.LittleEndian.AppendUint32(w.b, crc32.Checksum(w.b, castagnoli))
}

// reader walks a sealed message with a sticky error: after any failure all
// further reads return zero values, so decode paths can batch their error
// checks. It never panics on arbitrary input — every read is bounds-checked.
type reader struct {
	b   []byte
	off int
	err error
}

// open checks length, magic, version and seal, in that order, and positions
// a reader over the body (seal trailer excluded). The version goes before the
// seal so that a message another Version wrote, whatever its trailer, fails
// with ErrVersion rather than as corrupt.
func open(data []byte, magic [4]byte) (*reader, error) {
	if len(data) < headerLen+sealLen {
		return nil, fmt.Errorf("wire: message truncated (%d bytes)", len(data))
	}
	if m := [4]byte(data[:4]); m != magic {
		return nil, fmt.Errorf("wire: bad magic %q", m[:])
	}
	if v := binary.LittleEndian.Uint16(data[4:]); v != Version {
		return nil, fmt.Errorf("%w: version %d, this build speaks %d", ErrVersion, v, Version)
	}
	body, trailer := data[:len(data)-sealLen], data[len(data)-sealLen:]
	if binary.LittleEndian.Uint32(trailer) != crc32.Checksum(body, castagnoli) {
		return nil, fmt.Errorf("wire: checksum mismatch (message corrupted in transit)")
	}
	return &reader{b: body, off: headerLen}, nil
}

func (r *reader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

// done reports the sticky error, or leftover-byte trailing garbage.
func (r *reader) done() error {
	if r.err != nil {
		return r.err
	}
	if r.off != len(r.b) {
		return fmt.Errorf("wire: %d trailing bytes after message", len(r.b)-r.off)
	}
	return nil
}

func (r *reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.remaining() < n {
		r.fail(fmt.Errorf("wire: message truncated at offset %d", r.off))
		return nil
	}
	p := r.b[r.off : r.off+n]
	r.off += n
	return p
}

func (r *reader) u8() byte {
	p := r.take(1)
	if p == nil {
		return 0
	}
	return p[0]
}

func (r *reader) u16() uint16 {
	p := r.take(2)
	if p == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(p)
}

func (r *reader) uv() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("wire: bad varint at offset %d", r.off))
		return 0
	}
	r.off += n
	return v
}

func (r *reader) iv() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 {
		r.fail(fmt.Errorf("wire: bad varint at offset %d", r.off))
		return 0
	}
	r.off += n
	return v
}

func (r *reader) f64() float64 {
	p := r.take(8)
	if p == nil {
		return 0
	}
	return math.Float64frombits(binary.LittleEndian.Uint64(p))
}

func (r *reader) bool() bool {
	switch r.u8() {
	case 0:
		return false
	case 1:
		return true
	default:
		r.fail(fmt.Errorf("wire: bad boolean at offset %d", r.off-1))
		return false
	}
}

func (r *reader) str(max int) string {
	n := int(r.uv())
	if r.err != nil {
		return ""
	}
	if n < 0 || n > max || n > r.remaining() {
		r.fail(fmt.Errorf("wire: string length %d exceeds payload", n))
		return ""
	}
	return string(r.take(n))
}

// ---- stats ----

// encodeStats/decodeStats walk core.Stats reflectively, field by field in
// declaration order (ints as varints, float64s as bit patterns, nested
// structs recursively). Reflection keeps the codec drift-proof: a field
// added to Stats is carried automatically, and a field of an unsupported
// kind fails loudly at encode time instead of being silently dropped.
func encodeStats(w *writer, s core.Stats) error {
	return encodeStruct(w, reflect.ValueOf(s))
}

// statsMaxLen bounds encodeStats' output: a full varint per field at most.
var statsMaxLen = binary.MaxVarintLen64 * fieldCount(reflect.TypeOf(core.Stats{}))

func fieldCount(t reflect.Type) int {
	n := 0
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i).Type; f.Kind() == reflect.Struct {
			n += fieldCount(f)
		} else {
			n++
		}
	}
	return n
}

func encodeStruct(w *writer, v reflect.Value) error {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			w.iv(f.Int())
		case reflect.Float64:
			w.f64(f.Float())
		case reflect.Struct:
			if err := encodeStruct(w, f); err != nil {
				return err
			}
		default:
			return fmt.Errorf("wire: stats field %s has unsupported kind %s",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return nil
}

func decodeStats(r *reader, s *core.Stats) error {
	if err := decodeStruct(r, reflect.ValueOf(s).Elem()); err != nil {
		return err
	}
	return r.err
}

func decodeStruct(r *reader, v reflect.Value) error {
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			x := r.iv()
			if f.OverflowInt(x) {
				return fmt.Errorf("wire: stats field %s overflows", v.Type().Field(i).Name)
			}
			f.SetInt(x)
		case reflect.Float64:
			f.SetFloat(r.f64())
		case reflect.Struct:
			if err := decodeStruct(r, f); err != nil {
				return err
			}
		default:
			return fmt.Errorf("wire: stats field %s has unsupported kind %s",
				v.Type().Field(i).Name, f.Kind())
		}
	}
	return nil
}
