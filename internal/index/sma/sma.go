// Package sma implements Small Materialized Aggregates (Moerkotte '98),
// the per-column and per-column-block min/max statistics LogStore embeds
// in every LogBlock for data skipping (paper §3.2, §5.1).
//
// An SMA answers one question cheaply: "can any row in this column
// (block) possibly satisfy this predicate?" If not, the whole block is
// skipped without being fetched or decompressed.
package sma

import (
	"fmt"

	"logstore/internal/bitutil"
	"logstore/internal/schema"
)

// SMA holds min/max/count aggregates for a run of values of one column.
// For Int64 columns MinI/MaxI are populated; for String columns
// MinS/MaxS. Count is the number of rows summarized.
type SMA struct {
	Kind  schema.ColumnType
	Count int64
	MinI  int64
	MaxI  int64
	MinS  string
	MaxS  string
}

// New returns an empty SMA for the given column type.
func New(kind schema.ColumnType) *SMA {
	return &SMA{Kind: kind}
}

// AddInt folds an integer observation. Panics on kind mismatch: the
// builder constructs SMAs per typed column, so a mismatch is a bug.
func (s *SMA) AddInt(v int64) {
	if s.Kind != schema.Int64 {
		panic("sma: AddInt on non-int SMA")
	}
	if s.Count == 0 || v < s.MinI {
		s.MinI = v
	}
	if s.Count == 0 || v > s.MaxI {
		s.MaxI = v
	}
	s.Count++
}

// AddString folds a string observation.
func (s *SMA) AddString(v string) {
	if s.Kind != schema.String {
		panic("sma: AddString on non-string SMA")
	}
	if s.Count == 0 || v < s.MinS {
		s.MinS = v
	}
	if s.Count == 0 || v > s.MaxS {
		s.MaxS = v
	}
	s.Count++
}

// Add folds a typed value.
func (s *SMA) Add(v schema.Value) {
	if v.Kind == schema.Int64 {
		s.AddInt(v.I)
	} else {
		s.AddString(v.S)
	}
}

// Merge folds another SMA of the same kind into s.
func (s *SMA) Merge(o *SMA) {
	if o == nil || o.Count == 0 {
		return
	}
	if s.Kind != o.Kind {
		panic("sma: merging SMAs of different kinds")
	}
	if s.Count == 0 {
		*s = *o
		return
	}
	if s.Kind == schema.Int64 {
		if o.MinI < s.MinI {
			s.MinI = o.MinI
		}
		if o.MaxI > s.MaxI {
			s.MaxI = o.MaxI
		}
	} else {
		if o.MinS < s.MinS {
			s.MinS = o.MinS
		}
		if o.MaxS > s.MaxS {
			s.MaxS = o.MaxS
		}
	}
	s.Count += o.Count
}

// Op is a comparison operator a predicate applies to a column.
type Op uint8

// Comparison operators understood by MayMatch.
const (
	EQ Op = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the SQL spelling of the operator.
func (op Op) String() string {
	switch op {
	case EQ:
		return "="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("op(%d)", uint8(op))
	}
}

// MayMatch reports whether any summarized row could satisfy `col op v`.
// False means the block is safely skippable. An empty SMA never matches.
func (s *SMA) MayMatch(op Op, v schema.Value) bool {
	if s.Count == 0 {
		return false
	}
	if v.Kind != s.Kind {
		return true // type-confused predicate: never skip on its account
	}
	var cmpMin, cmpMax int
	if s.Kind == schema.Int64 {
		cmpMin = compareInt(s.MinI, v.I)
		cmpMax = compareInt(s.MaxI, v.I)
	} else {
		cmpMin = compareStr(s.MinS, v.S)
		cmpMax = compareStr(s.MaxS, v.S)
	}
	switch op {
	case EQ:
		return cmpMin <= 0 && cmpMax >= 0
	case NE:
		// Only skippable when every row equals v.
		return !(cmpMin == 0 && cmpMax == 0)
	case LT:
		return cmpMin < 0
	case LE:
		return cmpMin <= 0
	case GT:
		return cmpMax > 0
	case GE:
		return cmpMax >= 0
	default:
		return true
	}
}

// MayMatchRange reports whether any summarized row of an int64 column
// could satisfy lo <= col <= hi. An empty interval (lo > hi) and an
// empty SMA never match.
func (s *SMA) MayMatchRange(lo, hi int64) bool {
	return s.Count > 0 && lo <= hi && lo <= s.MaxI && s.MinI <= hi
}

// AllMatchRange reports whether every one of rows rows of an int64
// column satisfies lo <= col <= hi: the SMA answers the predicate the
// other way, and the column (block) need not be read to keep its rows.
// It holds only when the SMA summarizes all of them — a row missing
// from the aggregates (Count < rows) could lie anywhere.
func (s *SMA) AllMatchRange(lo, hi int64, rows int) bool {
	return s.Count > 0 && s.Count == int64(rows) && lo <= s.MinI && s.MaxI <= hi
}

func compareInt(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

func compareStr(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// AppendTo serializes the SMA.
func (s *SMA) AppendTo(dst []byte) []byte {
	dst = append(dst, byte(s.Kind))
	dst = bitutil.AppendVarint(dst, s.Count)
	if s.Kind == schema.Int64 {
		dst = bitutil.AppendVarint(dst, s.MinI)
		dst = bitutil.AppendVarint(dst, s.MaxI)
	} else {
		dst = bitutil.AppendLenString(dst, s.MinS)
		dst = bitutil.AppendLenString(dst, s.MaxS)
	}
	return dst
}

// Decode reverses AppendTo, returning the SMA and bytes consumed.
func Decode(data []byte) (*SMA, int, error) {
	if len(data) < 1 {
		return nil, 0, fmt.Errorf("sma: empty input")
	}
	s := &SMA{Kind: schema.ColumnType(data[0])}
	if s.Kind != schema.Int64 && s.Kind != schema.String {
		return nil, 0, fmt.Errorf("sma: bad kind %d", data[0])
	}
	off := 1
	count, n, err := bitutil.Varint(data[off:])
	if err != nil {
		return nil, 0, fmt.Errorf("sma: count: %w", err)
	}
	if count < 0 {
		return nil, 0, fmt.Errorf("sma: negative count %d", count)
	}
	s.Count = count
	off += n
	if s.Kind == schema.Int64 {
		if s.MinI, n, err = bitutil.Varint(data[off:]); err != nil {
			return nil, 0, fmt.Errorf("sma: min: %w", err)
		}
		off += n
		if s.MaxI, n, err = bitutil.Varint(data[off:]); err != nil {
			return nil, 0, fmt.Errorf("sma: max: %w", err)
		}
		off += n
	} else {
		if s.MinS, n, err = bitutil.LenString(data[off:]); err != nil {
			return nil, 0, fmt.Errorf("sma: min: %w", err)
		}
		off += n
		if s.MaxS, n, err = bitutil.LenString(data[off:]); err != nil {
			return nil, 0, fmt.Errorf("sma: max: %w", err)
		}
		off += n
	}
	return s, off, nil
}
