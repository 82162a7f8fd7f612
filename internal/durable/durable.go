// Package durable writes files that survive a crash or power loss at any
// point: whole, or not at all.
package durable

import (
	"os"
	"path/filepath"
)

// WriteFile replaces path with data atomically and durably. The data goes
// to a temp file in the same directory, which is fsynced and renamed over
// path; then the directory is fsynced so the rename itself is on disk. A
// crash at any point leaves the old file or the new one, plus at worst an
// orphan "<base>.*.tmp" file that readers must ignore.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".*.tmp")
	if err != nil {
		return err
	}
	err = writeSync(tmp, data, perm)
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(filepath.Dir(path))
}

func writeSync(f *os.File, data []byte, perm os.FileMode) error {
	if _, err := f.Write(data); err != nil {
		return err
	}
	if err := f.Chmod(perm); err != nil {
		return err
	}
	return f.Sync()
}

// syncDir fsyncs a directory, making the renames in it durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}
