// Package logblock implements LogStore's read-optimized columnar storage
// unit (paper §3.2, Figure 4).
//
// A LogBlock holds one tenant's rows for a time range, as:
//
//  1. header       — table schema, row count, codec, block geometry
//  2. column meta  — per-column SMA and index kind
//  3. indexes      — inverted index (strings) or BKD tree (numerics)
//  4. block header — per column-block row count and SMA
//  5. column blocks — validity bitset + compressed values
//
// Following the paper's production experience, all parts are packaged
// into a single tar file whose first member is a manifest mapping part
// names to byte extents, so any part can be ranged out of object storage
// without listing or downloading the whole object ("The header of the
// tar file contains a manifest, allowing subsequent read operations to
// seek and read any part of the tar file").
//
// The tar has at most four members, so a block pays for four headers
// however many columns and column blocks it has:
//
//	manifest  extent table (first member)
//	meta      parts 1, 2 and 4 of the structure above
//	index     every column's serialized index, back to back
//	          (absent when no column is indexed)
//	data      every column block, back to back, column-major
//
// The manifest has one entry per part, and its extents are the only
// addressing readers use — they never parse a member header past the
// manifest's own:
//
//	meta              the meta member
//	index/<col>       serialized index of column ordinal <col>
//	data/<col>/<blk>  column block <blk> of column ordinal <col>
//
// Objects written before the four-member layout gave every part a tar
// member of its own; their manifests carry the same names, so they open
// and read unchanged.
package logblock

import (
	"fmt"
	"strconv"

	"logstore/internal/bitutil"
)

// Magic identifies the meta member of a LogBlock.
const Magic = "LGBK1"

// DefaultBlockRows is the number of rows per column block. Smaller
// blocks skip more precisely but cost more per-block overhead.
const DefaultBlockRows = 4096

// The tar member names. MemberMeta is also the meta part's manifest name.
const (
	MemberManifest = "manifest"
	MemberMeta     = "meta"
	memberIndex    = "index"
	memberData     = "data"
)

// IndexMember returns the manifest name of column col's index.
func IndexMember(col int) string {
	var buf [32]byte
	return string(appendIndexName(buf[:0], col))
}

// DataMember returns the manifest name of column col's block blk.
func DataMember(col, blk int) string {
	var buf [48]byte
	return string(appendDataName(buf[:0], col, blk))
}

func appendIndexName(dst []byte, col int) []byte {
	return strconv.AppendInt(append(dst, "index/"...), int64(col), 10)
}

func appendDataName(dst []byte, col, blk int) []byte {
	dst = strconv.AppendInt(append(dst, "data/"...), int64(col), 10)
	return strconv.AppendInt(append(dst, '/'), int64(blk), 10)
}

// Extent locates a member inside the packed tar object.
type Extent struct {
	Offset int64
	Size   int64
}

// Manifest maps part names to extents. Serialized with fixed-width
// offset/size fields so its encoded size is independent of the values,
// letting the packer compute extents before writing.
type Manifest struct {
	Members map[string]Extent
	order   []string
}

// NewManifest returns an empty manifest.
func NewManifest() *Manifest {
	return &Manifest{Members: make(map[string]Extent)}
}

// Add registers a member. Order of addition is preserved in encoding.
func (m *Manifest) Add(name string, ext Extent) {
	if _, ok := m.Members[name]; !ok {
		m.order = append(m.order, name)
	}
	m.Members[name] = ext
}

// Names returns the member names in insertion order.
func (m *Manifest) Names() []string {
	out := make([]string, len(m.order))
	copy(out, m.order)
	return out
}

// Lookup returns the extent of a member.
func (m *Manifest) Lookup(name string) (Extent, bool) {
	e, ok := m.Members[name]
	return e, ok
}

// manifestEntrySize is the encoded size of an entry whose name has
// nameLen bytes.
func manifestEntrySize(nameLen int) int {
	return bitutil.UvarintLen(uint64(nameLen)) + nameLen + 16
}

// appendManifestEntry encodes one entry: a len-prefixed name, u64
// offset, u64 size.
func appendManifestEntry(dst, name []byte, ext Extent) []byte {
	dst = bitutil.AppendLenBytes(dst, name)
	var fixed [16]byte
	bitutil.PutUint64(fixed[0:8], uint64(ext.Offset))
	bitutil.PutUint64(fixed[8:16], uint64(ext.Size))
	return append(dst, fixed[:]...)
}

// Encode serializes the manifest: u32 count, then one entry per member
// in insertion order.
func (m *Manifest) Encode() []byte {
	out := make([]byte, 4)
	bitutil.PutUint32(out, uint32(len(m.order)))
	for _, name := range m.order {
		out = appendManifestEntry(out, []byte(name), m.Members[name])
	}
	return out
}

// DecodeManifest reverses Encode.
func DecodeManifest(data []byte) (*Manifest, error) {
	if len(data) < 4 {
		return nil, fmt.Errorf("logblock: manifest truncated")
	}
	n := int(bitutil.Uint32(data[0:4]))
	if n < 0 || n > 1<<24 {
		return nil, fmt.Errorf("logblock: implausible manifest entry count %d", n)
	}
	m := NewManifest()
	off := 4
	for i := 0; i < n; i++ {
		name, c, err := bitutil.LenString(data[off:])
		if err != nil {
			return nil, fmt.Errorf("logblock: manifest entry %d: %w", i, err)
		}
		off += c
		if off+16 > len(data) {
			return nil, fmt.Errorf("logblock: manifest entry %d extent truncated", i)
		}
		m.Add(name, Extent{
			Offset: int64(bitutil.Uint64(data[off:])),
			Size:   int64(bitutil.Uint64(data[off+8:])),
		})
		off += 16
	}
	return m, nil
}
