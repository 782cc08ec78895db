package logblock

import (
	"logstore/internal/bitutil"
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

// encodeStringBlock chooses the smaller of plain and dictionary
// encoding for one string column block. The returned payload is scratch
// memory, valid until the next call.
func (s *buildScratch) encodeStringBlock(rows []schema.Row, ci int) (byte, []byte) {
	plain, entries, codes := s.plain[:0], s.entries[:0], s.codes[:0]
	clear(s.dict)
	dictable := true
	for _, r := range rows {
		v := r[ci].S
		plain = bitutil.AppendLenString(plain, v)
		if !dictable {
			continue
		}
		code, ok := s.dict[v]
		if !ok {
			if len(s.dict) >= maxDictEntries {
				dictable = false
				continue
			}
			code = len(s.dict)
			s.dict[v] = code
			entries = bitutil.AppendLenString(entries, v)
		}
		codes = bitutil.AppendUvarint(codes, uint64(code))
	}
	s.plain, s.entries, s.codes = plain, entries, codes
	count := uint64(len(s.dict))
	if !dictable || bitutil.UvarintLen(count)+len(entries)+len(codes) >= len(plain) {
		return encodingPlain, plain
	}
	// The dictionary payload — entry count, entries in order of first
	// use, one code per row — is assembled over the plain one it beat.
	s.plain = append(append(bitutil.AppendUvarint(plain[:0], count), entries...), codes...)
	return encodingDict, s.plain
}
