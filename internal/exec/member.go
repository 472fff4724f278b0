package exec

import (
	"math"

	"repro/internal/store"
)

// memberSet answers "x IN (subquery)" with hash probes under exactly
// the equality of evalIn's linear scan, store.Equal: two integers
// compare exactly, an integer and a float compare as float64, NaN
// compares equal to every number, and values of different non-numeric
// kinds never match. hasNull records a NULL element, which turns a
// miss into NULL rather than FALSE.
type memberSet struct {
	ints     map[int64]struct{}   // integer elements
	intsAsF  map[float64]struct{} // integer elements as float64, probed by floats
	floats   map[float64]struct{} // non-NaN float elements (-0 and 0 are one key)
	strs     map[string]struct{}
	anyNum   bool // some numeric element: a NaN probe matches it
	nanElem  bool // some NaN element: every numeric probe matches it
	hasTrue  bool
	hasFalse bool
	hasNull  bool
}

func newMemberSet(rows []store.Row) *memberSet {
	s := &memberSet{
		ints:    map[int64]struct{}{},
		intsAsF: map[float64]struct{}{},
		floats:  map[float64]struct{}{},
		strs:    map[string]struct{}{},
	}
	for _, row := range rows {
		v := row[0]
		switch v.Kind() {
		case store.KindNull:
			s.hasNull = true
		case store.KindInt:
			s.anyNum = true
			s.ints[v.Int64()] = struct{}{}
			s.intsAsF[float64(v.Int64())] = struct{}{}
		case store.KindFloat:
			s.anyNum = true
			f, _ := v.AsFloat()
			if math.IsNaN(f) {
				s.nanElem = true
			} else {
				s.floats[f] = struct{}{}
			}
		case store.KindText:
			s.strs[v.Str()] = struct{}{}
		case store.KindBool:
			if v.BoolVal() {
				s.hasTrue = true
			} else {
				s.hasFalse = true
			}
		}
	}
	return s
}

// contains probes a non-NULL x, returning whether an element equals it
// and whether the set holds a NULL — the pair linearIn reports.
func (s *memberSet) contains(x store.Value) (found, sawNull bool) {
	switch x.Kind() {
	case store.KindInt:
		_, ok := s.ints[x.Int64()]
		if !ok {
			_, ok = s.floats[float64(x.Int64())]
		}
		found = ok || s.nanElem
	case store.KindFloat:
		f, _ := x.AsFloat()
		if math.IsNaN(f) {
			found = s.anyNum
			break
		}
		_, ok := s.floats[f]
		if !ok {
			_, ok = s.intsAsF[f]
		}
		found = ok || s.nanElem
	case store.KindText:
		_, found = s.strs[x.Str()]
	case store.KindBool:
		found = (x.BoolVal() && s.hasTrue) || (!x.BoolVal() && s.hasFalse)
	}
	return found, s.hasNull
}
