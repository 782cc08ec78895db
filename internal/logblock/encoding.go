package logblock

import (
	"logstore/internal/bitutil"
	"logstore/internal/index/inverted"
	"logstore/internal/index/sma"
	"logstore/internal/schema"
)

// Column-block payload encodings. Each data member carries one encoding
// byte after the validity bitset, before the compressed payload.
const (
	// encodingPlain stores int columns as varints and string columns as
	// concatenated length-prefixed strings.
	encodingPlain byte = 0
	// encodingDict stores a string column block as a dictionary of
	// distinct values followed by per-row dictionary indices. Low-
	// cardinality columns (fail, api, ip) shrink several-fold before
	// general compression even runs — the frequency-based dictionary
	// idea the paper cites from DB2 BLU.
	encodingDict byte = 1
)

// maxDictEntries bounds dictionary size; blocks with more distinct
// values fall back to plain encoding.
const maxDictEntries = 4096

// encodeStringBlock makes the one pass over a string column block's
// cells. rows are the block's rows, the first of them row first of the
// LogBlock; st is the block's SMA, and inv the column's inverted index
// (nil when the column has none). Each cell costs one dictionary
// lookup. A value's first sight gives it its dictionary code, folds it
// into st and analyzes it into inv, keeping the span of term ordinals
// it posted; a repeat appends its code, counts itself in st (it cannot
// move the min or max) and posts its row under that span. Once a block
// brings more than maxDictEntries distinct values it is plain-encoded,
// and its remaining cells take the per-row path: SMA AddString and
// inverted Add.
//
// It returns the smaller of the plain and dictionary encodings; the
// payload is scratch memory, valid until the next call.
func (s *buildScratch) encodeStringBlock(rows []schema.Row, ci, first int, st *sma.SMA, inv *inverted.Builder) (byte, []byte) {
	plain, entries, codes := s.plain[:0], s.entries[:0], s.codes[:0]
	// Value code c's terms are ords[spans[c]:spans[c+1]].
	ords, spans := s.ords[:0], append(s.spans[:0], 0)
	clear(s.dict)
	dictable := true
	for i, r := range rows {
		v, row := r[ci].S, uint32(first+i)
		plain = bitutil.AppendLenString(plain, v)
		if dictable {
			code, seen := s.dict[v]
			switch {
			case seen:
				st.Count++
				if inv != nil {
					inv.AddOrdinals(row, ords[spans[code]:spans[code+1]])
				}
			case len(s.dict) < maxDictEntries:
				code = len(s.dict)
				s.dict[v] = code
				entries = bitutil.AppendLenString(entries, v)
				st.AddString(v)
				if inv != nil {
					ords = inv.AddValue(row, v, ords)
					spans = append(spans, uint32(len(ords)))
				}
			default:
				dictable = false
			}
			if dictable {
				codes = bitutil.AppendUvarint(codes, uint64(code))
				continue
			}
		}
		st.AddString(v)
		if inv != nil {
			inv.Add(row, v)
		}
	}
	s.plain, s.entries, s.codes, s.ords, s.spans = plain, entries, codes, ords, spans
	count := uint64(len(s.dict))
	if !dictable || bitutil.UvarintLen(count)+len(entries)+len(codes) >= len(plain) {
		return encodingPlain, plain
	}
	// The dictionary payload — entry count, entries in order of first
	// use, one code per row — is assembled over the plain one it beat.
	s.plain = append(append(bitutil.AppendUvarint(plain[:0], count), entries...), codes...)
	return encodingDict, s.plain
}
