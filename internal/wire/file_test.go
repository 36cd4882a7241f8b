package wire_test

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"boosthd/internal/wire"
)

// TestWriteFileAtomic pins the replace contract: the new bytes land
// under path, a failed write leaves the previous file untouched and no
// temp file behind, and a missing directory is an error.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state")
	put := func(s string) func(io.Writer) error {
		return func(w io.Writer) error {
			_, err := io.WriteString(w, s)
			return err
		}
	}
	for _, s := range []string{"first", "second"} {
		if err := wire.WriteFileAtomic(path, "state-*.tmp", put(s)); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != s {
			t.Fatalf("after writing %q: read %q, %v", s, got, err)
		}
	}

	boom := errors.New("boom")
	err := wire.WriteFileAtomic(path, "state-*.tmp", func(w io.Writer) error {
		io.WriteString(w, "torn")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("failed write returned %v, want %v", err, boom)
	}
	if got, _ := os.ReadFile(path); string(got) != "second" {
		t.Fatalf("failed write left %q under path, want the previous %q", got, "second")
	}
	if left, _ := filepath.Glob(filepath.Join(dir, "state-*.tmp")); len(left) != 0 {
		t.Fatalf("failed write left temp files %v", left)
	}

	if err := wire.WriteFileAtomic(filepath.Join(dir, "missing", "state"), "state-*.tmp", put("x")); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
