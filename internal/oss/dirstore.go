package oss

import (
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"logstore/internal/fsutil"
)

// DirStore is a filesystem-backed Store: each object is one file under
// a root directory. It gives single-machine deployments durable
// LogBlock storage (the logstore-server -store-dir flag) while keeping
// the exact Store semantics the cluster expects from object storage.
//
// Object keys may contain any byte; they are encoded into safe file
// names (path separators preserved for prefix listing, other special
// bytes hex-escaped) so keys round-trip exactly.
type DirStore struct {
	root string
	mu   sync.RWMutex
}

// NewDirStore opens (creating if needed) a directory-backed store.
func NewDirStore(root string) (*DirStore, error) {
	if root == "" {
		return nil, fmt.Errorf("oss: empty store directory")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("oss: create store dir: %w", err)
	}
	return &DirStore{root: root}, nil
}

// encodeSeg makes one key segment filesystem-safe.
func encodeSeg(seg string) string {
	var sb strings.Builder
	for i := 0; i < len(seg); i++ {
		c := seg[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
			sb.WriteByte(c)
		default:
			sb.WriteByte('%')
			sb.WriteString(hex.EncodeToString([]byte{c}))
		}
	}
	// Guard against "." and ".." path elements.
	out := sb.String()
	if out == "." || out == ".." {
		return "%2e" + out[1:]
	}
	return out
}

func decodeSeg(seg string) (string, error) {
	var sb strings.Builder
	for i := 0; i < len(seg); i++ {
		if seg[i] != '%' {
			sb.WriteByte(seg[i])
			continue
		}
		if i+2 >= len(seg) {
			return "", fmt.Errorf("oss: bad escape in %q", seg)
		}
		b, err := hex.DecodeString(seg[i+1 : i+3])
		if err != nil {
			return "", fmt.Errorf("oss: bad escape in %q: %w", seg, err)
		}
		sb.WriteByte(b[0])
		i += 2
	}
	return sb.String(), nil
}

func (s *DirStore) path(key string) string {
	segs := strings.Split(key, "/")
	for i, seg := range segs {
		segs[i] = encodeSeg(seg)
	}
	return filepath.Join(append([]string{s.root}, segs...)...)
}

// Put implements Store with an atomic rename so readers never observe a
// torn object, and durably (fsutil.WriteFile: the temp file is synced
// before the rename and the directory after it), so an acked object
// survives a power cut whole.
func (s *DirStore) Put(key string, data []byte) error {
	if key == "" {
		return fmt.Errorf("oss: empty key")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.path(key)
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("oss: mkdir for %s: %w", key, err)
	}
	if err := fsutil.WriteFile(p, data); err != nil {
		return fmt.Errorf("oss: put %s: %w", key, err)
	}
	return nil
}

// Get implements Store.
func (s *DirStore) Get(key string) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	data, err := os.ReadFile(s.path(key))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	return data, err
}

// GetRange implements Store.
func (s *DirStore) GetRange(key string, off, size int64) ([]byte, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := os.Open(s.path(key))
	if os.IsNotExist(err) {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if off < 0 || off > st.Size() {
		return nil, fmt.Errorf("oss: range offset %d out of object %s (%d bytes)", off, key, st.Size())
	}
	if size < 0 {
		size = st.Size() - off
	}
	if off+size > st.Size() {
		return nil, fmt.Errorf("oss: range [%d, %d) out of object %s (%d bytes)", off, off+size, key, st.Size())
	}
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, off); err != nil && size > 0 {
		return nil, fmt.Errorf("oss: range read %s: %w", key, err)
	}
	return buf, nil
}

// Head implements Store.
func (s *DirStore) Head(key string) (ObjectInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st, err := os.Stat(s.path(key))
	if os.IsNotExist(err) {
		return ObjectInfo{}, fmt.Errorf("%w: %s", ErrNotFound, key)
	}
	if err != nil {
		return ObjectInfo{}, err
	}
	return ObjectInfo{Key: key, Size: st.Size()}, nil
}

// List implements Store.
func (s *DirStore) List(prefix string) ([]ObjectInfo, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []ObjectInfo
	err := filepath.WalkDir(s.root, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		if strings.HasSuffix(p, ".tmp") {
			return nil
		}
		rel, err := filepath.Rel(s.root, p)
		if err != nil {
			return err
		}
		segs := strings.Split(filepath.ToSlash(rel), "/")
		for i, seg := range segs {
			dec, err := decodeSeg(seg)
			if err != nil {
				return nil // foreign file: skip
			}
			segs[i] = dec
		}
		key := strings.Join(segs, "/")
		if !strings.HasPrefix(key, prefix) {
			return nil
		}
		st, err := d.Info()
		if err != nil {
			return err
		}
		out = append(out, ObjectInfo{Key: key, Size: st.Size()})
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("oss: list: %w", err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out, nil
}

// Delete implements Store.
func (s *DirStore) Delete(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := os.Remove(s.path(key))
	if os.IsNotExist(err) {
		return nil
	}
	return err
}
