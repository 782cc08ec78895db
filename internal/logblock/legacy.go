package logblock

import (
	"fmt"
	"strconv"
	"strings"

	"logstore/internal/bitutil"
)

// Objects packed before the footer layout are tar files. The first
// member is a manifest of named extents, a u32 count and then per part
// a length-prefixed name, a u64 offset and a u64 size; the meta, index
// and data parts lie in later members (one member per part in the
// oldest objects, four members in all in later ones). Readers parse one
// tar header, the manifest's, and address every part through the
// manifest's absolute extents. Nothing writes this layout any more.

// tarBlock is the tar header and padding granule.
const tarBlock = 512

// parseTarSize extracts the payload size from a 512-byte tar header
// (octal field at bytes 124..136).
func parseTarSize(hdr []byte) (int64, error) {
	if len(hdr) < tarBlock {
		return 0, fmt.Errorf("logblock: tar header truncated: %d bytes", len(hdr))
	}
	field := strings.TrimRight(strings.TrimSpace(string(hdr[124:136])), "\x00")
	field = strings.TrimSpace(field)
	if field == "" {
		return 0, fmt.Errorf("logblock: empty tar size field")
	}
	v, err := strconv.ParseInt(field, 8, 64)
	if err != nil {
		return 0, fmt.Errorf("logblock: tar size field %q: %w", field, err)
	}
	if v < 0 {
		return 0, fmt.Errorf("logblock: negative tar size %d", v)
	}
	return v, nil
}

// legacyEntry is one decoded entry of a legacy manifest.
type legacyEntry struct {
	kind, col, blk int
	ext            Extent
}

// parseLegacyName maps a legacy manifest name to its part: "meta",
// "index/<col>" or "data/<col>/<blk>", with decimal numbers of at most
// nine digits.
func parseLegacyName(name string) (kind, col, blk int, ok bool) {
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

// decodeLegacyManifest decodes a legacy manifest of an object of size
// bytes into positions. Every extent must lie inside the object, and the
// data parts may not name a grid larger than their count, which bounds
// what it allocates by len(raw).
func decodeLegacyManifest(raw []byte, size int64) (*Manifest, error) {
	if len(raw) < 4 {
		return nil, fmt.Errorf("logblock: manifest truncated")
	}
	n := int(bitutil.Uint32(raw[0:4]))
	// An entry takes at least 17 bytes: a one-byte name and two u64s.
	if n > (len(raw)-4)/17 {
		return nil, fmt.Errorf("logblock: %d manifest entries in %d bytes", n, len(raw))
	}
	entries := make([]legacyEntry, n)
	var nData, cols, blocks int
	off := 4
	for i := range entries {
		name, c, err := bitutil.LenString(raw[off:])
		if err != nil {
			return nil, fmt.Errorf("logblock: manifest entry %d: %w", i, err)
		}
		off += c
		if off+16 > len(raw) {
			return nil, fmt.Errorf("logblock: manifest entry %d extent truncated", i)
		}
		e := &entries[i]
		var ok bool
		if e.kind, e.col, e.blk, ok = parseLegacyName(name); !ok {
			return nil, fmt.Errorf("logblock: manifest entry %d names no part: %q", i, name)
		}
		o, s := bitutil.Uint64(raw[off:]), bitutil.Uint64(raw[off+8:])
		off += 16
		if s == 0 || o > uint64(size) || s > uint64(size)-o {
			return nil, fmt.Errorf("logblock: part %q at [%d, +%d) outside an object of %d bytes", name, o, s, size)
		}
		e.ext = Extent{Offset: int64(o), Size: int64(s)}
		if e.kind == kindData {
			nData++
			cols, blocks = max(cols, e.col+1), max(blocks, e.blk+1)
		}
	}
	if cols > nData || blocks > nData || cols*blocks > nData {
		return nil, fmt.Errorf("logblock: %d data parts name a grid of %d columns by %d blocks", nData, cols, blocks)
	}
	m := &Manifest{Index: make([]Extent, cols), Data: make([]Extent, cols*blocks), NumBlocks: blocks}
	for _, e := range entries {
		switch e.kind {
		case kindMeta:
			m.Meta = e.ext
		case kindIndex:
			if e.col >= cols {
				return nil, fmt.Errorf("logblock: index of column %d beyond %d columns", e.col, cols)
			}
			m.Index[e.col] = e.ext
		case kindData:
			m.Data[e.col*blocks+e.blk] = e.ext
		}
	}
	if m.Meta == (Extent{}) {
		return nil, fmt.Errorf("logblock: manifest has no meta part")
	}
	return m, nil
}
