package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
)

// ErrMalformed marks a payload whose checksum verified but whose layout
// does not parse: a count or length past the bytes left, a value out of
// range, bytes left over.
var ErrMalformed = errors.New("codec: malformed payload")

// Enc appends the flat encodings hand-laid payloads are made of. It is
// an io.Writer, so a section may come from any writer.
type Enc struct{ B []byte }

func (e *Enc) Write(p []byte) (int, error) { e.B = append(e.B, p...); return len(p), nil }
func (e *Enc) Uvarint(v uint64)            { e.B = binary.AppendUvarint(e.B, v) }
func (e *Enc) Int(v int)                   { e.B = binary.AppendVarint(e.B, int64(v)) }
func (e *Enc) Byte(b byte)                 { e.B = append(e.B, b) }

// Float64 appends f's bits byte-reversed as a varint, as gob does: round
// values take two or three bytes, and every value round-trips exactly.
func (e *Enc) Float64(f float64) { e.Uvarint(bits.ReverseBytes64(math.Float64bits(f))) }

// Begin opens a section, reserving its 8-byte length; End(mark) sets it.
func (e *Enc) Begin() int   { e.B = append(e.B, make([]byte, 8)...); return len(e.B) }
func (e *Enc) End(mark int) { binary.BigEndian.PutUint64(e.B[mark-8:mark], uint64(len(e.B)-mark)) }

// Dec reads what Enc wrote, without copying. The first failure sticks —
// later reads return zero values — so a decoder checks once, at Done.
// Count and Index bound what they return, so a caller allocates in
// proportion to its input whatever the input claims.
type Dec struct {
	b   []byte
	err error
}

func NewDec(b []byte) *Dec { return &Dec{b: b} }
func (d *Dec) Err() error  { return d.err }

// Fail records a failure, wrapping ErrMalformed; the first one sticks.
func (d *Dec) Fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s", ErrMalformed, fmt.Sprintf(format, args...))
	}
	d.b = nil
}

// Uvarint reads an unsigned varint in its shortest encoding, the one
// Enc writes, so every value has one encoding.
func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 {
		d.Fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a zigzag varint in its shortest encoding, which must fit an
// int32.
func (d *Dec) Int() int {
	v, n := binary.Varint(d.b)
	if n <= 0 || n > 1 && d.b[n-1] == 0 || v != int64(int32(v)) {
		d.Fail("bad varint")
		return 0
	}
	d.b = d.b[n:]
	return int(v)
}

func (d *Dec) Float64() float64 { return math.Float64frombits(bits.ReverseBytes64(d.Uvarint())) }

// Bytes returns the next n bytes, aliasing the input.
func (d *Dec) Bytes(n int) []byte {
	if n < 0 || n > len(d.b) {
		d.Fail("%d bytes wanted, %d left", n, len(d.b))
		return nil
	}
	b := d.b[:n:n]
	d.b = d.b[n:]
	return b
}

func (d *Dec) Byte() byte {
	if b := d.Bytes(1); b != nil {
		return b[0]
	}
	return 0
}

func (d *Dec) Uint64() uint64 {
	if b := d.Bytes(8); b != nil {
		return binary.BigEndian.Uint64(b)
	}
	return 0
}

// Section reads a section Begin and End wrote.
func (d *Dec) Section() []byte { return d.Bytes(int(min(d.Uint64(), math.MaxInt32))) }

// Count reads an element count, failing unless the bytes left can hold
// that many elements of at least minBytes each.
func (d *Dec) Count(minBytes int) int { return d.Index(len(d.b)/minBytes + 1) }

// Index reads an unsigned varint that must be below n.
func (d *Dec) Index(n int) int {
	if v := d.Uvarint(); v < uint64(n) {
		return int(v)
	}
	d.Fail("value out of range [0, %d)", n)
	return 0
}

// Done fails unless every byte was read, and returns the first failure.
func (d *Dec) Done() error {
	if len(d.b) != 0 {
		d.Fail("%d trailing bytes", len(d.b))
	}
	return d.err
}

// Deltas fills dst with the running sums, from start, of len(dst)
// zigzag varints in their shortest encoding — a run of IDs each written
// as a delta from the one before — failing if a sum leaves
// [0, MaxInt32]. One-byte deltas, the common case, take a fast path.
func Deltas[T ~int32](d *Dec, dst []T, start T) {
	b, sum := d.b, int64(start)
	for i := range dst {
		u := uint64(0)
		if len(b) > 0 && b[0] < 0x80 {
			u, b = uint64(b[0]), b[1:]
		} else if v, n := binary.Uvarint(b); n > 0 && b[n-1] != 0 {
			u, b = v, b[n:]
		} else {
			d.Fail("bad varint")
			return
		}
		if sum += int64(u>>1) ^ -int64(u&1); sum < 0 || sum > math.MaxInt32 {
			d.Fail("delta run leaves [0, MaxInt32] at %d", sum)
			return
		}
		dst[i] = T(sum)
	}
	d.b = b
}
