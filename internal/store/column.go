package store

import (
	"repro/internal/schema"
)

// This file holds the columnar primitives shared by the segment layout
// (segment.go): the null bitmap and the schema-type-to-kind mapping.

// Bitmap is a bitset over row ids, the null mask of a segment column.
// The nil Bitmap reports every bit clear, so columns without NULLs
// carry no mask at all.
type Bitmap []uint64

// NewBitmap returns a bitmap with capacity for n bits, all clear.
func NewBitmap(n int) Bitmap { return make(Bitmap, (n+63)/64) }

// Set sets bit i. The bitmap must have been sized to cover i.
func (b Bitmap) Set(i int) { b[i>>6] |= 1 << (uint(i) & 63) }

// Get reports bit i; the nil bitmap is all-clear.
func (b Bitmap) Get(i int) bool {
	if b == nil {
		return false
	}
	return b[i>>6]&(1<<(uint(i)&63)) != 0
}

// AnyRange reports whether any bit in [lo, hi) is set.
func (b Bitmap) AnyRange(lo, hi int) bool {
	if b == nil {
		return false
	}
	for i := lo; i < hi; i++ {
		if b.Get(i) {
			return true
		}
	}
	return false
}

// KindOfColType maps a schema column type to the Value kind its cells
// are stored as.
func KindOfColType(t schema.ColType) Kind {
	switch t {
	case schema.Int:
		return KindInt
	case schema.Float:
		return KindFloat
	case schema.Text:
		return KindText
	case schema.Bool:
		return KindBool
	}
	return KindNull
}
