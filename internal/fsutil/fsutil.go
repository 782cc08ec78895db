// Package fsutil holds the one durable-write helper that the local WAL
// and the directory-backed object store share: a file is written
// under a temporary name, synced, renamed into place and its directory
// synced, so after a crash it is either whole under its name or absent.
package fsutil

import (
	"fmt"
	"os"
	"path/filepath"
)

// WriteFile makes data the content of path durably and atomically: it
// writes path+".tmp", syncs it, renames it over path, then syncs the
// directory. Without the first sync the rename can reach the disk
// before the data, and the file come back empty after a power cut;
// without the second the rename itself can be lost. On error the
// temporary file is removed; one a crash left behind is overwritten by
// the next call.
func WriteFile(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := writeSynced(tmp, data); err != nil {
		_ = os.Remove(tmp) // surfacing the write failure
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		_ = os.Remove(tmp) // surfacing the rename failure
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// writeSynced writes data to path, created or truncated, and syncs it.
func writeSynced(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// SyncDir makes the entries of dir durable: a file created, renamed or
// removed in it.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("fsutil: open dir: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("fsutil: sync dir: %w", err)
	}
	return nil
}
