// Package tarblock reads LogBlocks in the tar layout that older
// releases wrote, before the footer layout of package logblock. The
// first tar member is a manifest of named extents: a u32 count, then per
// part a length-prefixed name ("meta", "index/<col>" or
// "data/<col>/<blk>"), a u64 offset and a u64 size. The parts lie in
// later members, one member per part in the oldest objects and four
// members in all in later ones.
//
// logblock.OpenReader refuses such objects with
// logblock.ErrLegacyLayout. The builder's one-time rewrite reads their
// rows through this package and packs them again in the current layout;
// nothing on the query path reads it, and nothing writes the layout.
package tarblock

import (
	"fmt"
	"strconv"
	"strings"

	"logstore/internal/bitutil"
	"logstore/internal/logblock"
)

// tarBlock is the tar header and padding granule.
const tarBlock = 512

// Part kinds, as a manifest name states them.
const (
	kindData = iota
	kindIndex
	kindMeta
)

// Open opens obj, an object in the tar layout, for reading its rows.
// Its meta and data parts are those of any LogBlock; an index in the
// encoding before the compact one does not load (ErrLegacyLayout).
func Open(obj []byte) (*logblock.Reader, error) {
	msize, err := parseTarSize(obj)
	if err != nil {
		return nil, err
	}
	if msize > int64(len(obj)-tarBlock) {
		return nil, fmt.Errorf("tarblock: manifest of %d bytes in an object of %d", msize, len(obj))
	}
	man, err := decodeManifest(obj[tarBlock:tarBlock+msize], int64(len(obj)))
	if err != nil {
		return nil, err
	}
	return logblock.OpenManifest(logblock.BytesFetcher(obj), man)
}

// parseTarSize extracts the payload size from a 512-byte tar header
// (octal field at bytes 124..136).
func parseTarSize(hdr []byte) (int64, error) {
	if len(hdr) < tarBlock {
		return 0, fmt.Errorf("tarblock: tar header truncated: %d bytes", len(hdr))
	}
	field := strings.TrimRight(strings.TrimSpace(string(hdr[124:136])), "\x00")
	field = strings.TrimSpace(field)
	if field == "" {
		return 0, fmt.Errorf("tarblock: empty tar size field")
	}
	v, err := strconv.ParseInt(field, 8, 64)
	if err != nil {
		return 0, fmt.Errorf("tarblock: tar size field %q: %w", field, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("tarblock: negative tar size %d", v)
	}
	return v, nil
}

// entry is one decoded entry of a manifest.
type entry struct {
	kind, col, blk int
	ext            logblock.Extent
}

// parseName maps a manifest name to its part: "meta", "index/<col>" or
// "data/<col>/<blk>", with decimal numbers of at most nine digits.
func parseName(name string) (kind, col, blk int, ok bool) {
	num := func(s string) (int, bool) {
		if len(s) == 0 || len(s) > 9 {
			return 0, false
		}
		n := 0
		for i := 0; i < len(s); i++ {
			if s[i] < '0' || s[i] > '9' {
				return 0, false
			}
			n = n*10 + int(s[i]-'0')
		}
		return n, true
	}
	switch {
	case name == "meta":
		return kindMeta, 0, 0, true
	case strings.HasPrefix(name, "index/"):
		col, ok = num(name[len("index/"):])
		return kindIndex, col, 0, ok
	case strings.HasPrefix(name, "data/"):
		c, b, found := strings.Cut(name[len("data/"):], "/")
		if !found {
			return 0, 0, 0, false
		}
		col, ok = num(c)
		if !ok {
			return 0, 0, 0, false
		}
		blk, ok = num(b)
		return kindData, col, blk, ok
	}
	return 0, 0, 0, false
}

// decodeManifest decodes raw, the manifest of an object of size bytes,
// into positions. Every extent must lie inside the object, and the data
// parts may not name a grid larger than their count, which bounds what
// it allocates by len(raw).
func decodeManifest(raw []byte, size int64) (*logblock.Manifest, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("tarblock: manifest truncated")
	}
	n := int(bitutil.Uint32(raw[0:4]))
	// An entry takes at least 17 bytes: a one-byte name and two u64s.
	if n > (len(raw)-4)/17 {
		return nil, fmt.Errorf("tarblock: %d manifest entries in %d bytes", n, len(raw))
	}
	entries := make([]entry, n)
	var nData, cols, blocks int
	off := 4
	for i := range entries {
		name, c, err := bitutil.LenString(raw[off:])
		if err != nil {
			return nil, fmt.Errorf("tarblock: manifest entry %d: %w", i, err)
		}
		off += c
		if off+16 > len(raw) {
			return nil, fmt.Errorf("tarblock: manifest entry %d extent truncated", i)
		}
		e := &entries[i]
		var ok bool
		if e.kind, e.col, e.blk, ok = parseName(name); !ok {
			return nil, fmt.Errorf("tarblock: manifest entry %d names no part: %q", i, name)
		}
		o, s := bitutil.Uint64(raw[off:]), bitutil.Uint64(raw[off+8:])
		off += 16
		if s == 0 || o > uint64(size) || s > uint64(size)-o {
			return nil, fmt.Errorf("tarblock: part %q at [%d, +%d) outside an object of %d bytes", name, o, s, size)
		}
		e.ext = logblock.Extent{Offset: int64(o), Size: int64(s)}
		if e.kind == kindData {
			nData++
			cols, blocks = max(cols, e.col+1), max(blocks, e.blk+1)
		}
	}
	if cols > nData || blocks > nData || cols*blocks > nData {
		return nil, fmt.Errorf("tarblock: %d data parts name a grid of %d columns by %d blocks", nData, cols, blocks)
	}
	m := &logblock.Manifest{Index: make([]logblock.Extent, cols), Data: make([]logblock.Extent, cols*blocks), NumBlocks: blocks}
	for _, e := range entries {
		switch e.kind {
		case kindMeta:
			m.Meta = e.ext
		case kindIndex:
			if e.col >= cols {
				return nil, fmt.Errorf("tarblock: index of column %d beyond %d columns", e.col, cols)
			}
			m.Index[e.col] = e.ext
		case kindData:
			m.Data[e.col*blocks+e.blk] = e.ext
		}
	}
	if m.Meta == (logblock.Extent{}) {
		return nil, fmt.Errorf("tarblock: manifest has no meta part")
	}
	return m, nil
}
