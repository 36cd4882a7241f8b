package wire

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// WriteFileAtomic replaces path with what write emits, atomically and
// durably: write fills a temp file created in path's directory (named
// from pattern, as os.CreateTemp takes it), the temp file is synced
// before it is renamed over path, and the directory is synced after, so
// a crash leaves either the old file or the new one under path, never an
// empty or torn one, and a returned nil means the new file survives a
// crash. On error the temp file is removed and path is left as it was.
func WriteFileAtomic(path, pattern string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, pattern)
	if err != nil {
		return err
	}
	err = write(tmp)
	if err == nil {
		err = tmp.Sync()
	}
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
	// The rename is durable only once the directory entry is.
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sync %s: %w", dir, err)
	}
	return nil
}
