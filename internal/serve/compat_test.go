package serve

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"boosthd/internal/boosthd"
	"boosthd/internal/wire"
)

// v1StoreSig is signDelta of the delta testdata/v1store holds, taken when
// the store was written.
const v1StoreSig uint64 = 0xc98719a3d6c830b3

// journalVersions returns the header version of every entry in a
// tenant journal file.
func journalVersions(t *testing.T, path string) []byte {
	t.Helper()
	jb, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var vs []byte
	for off := 0; off+4 <= len(jb); {
		n := int(binary.LittleEndian.Uint32(jb[off:]))
		vs = append(vs, jb[off+4+len(wire.MagicTenantJournal)])
		off += 4 + n
	}
	return vs
}

// TestDeltaStoreReadsV1Records pins compatibility with stores written
// before tenant records were packed. testdata/v1store is such a store:
// base.bhde is fixture(t, 192, 3) saved as an ensemble checkpoint, and
// tenant w1 holds a Version1 full record of testDelta(base, {0, 2}, 1)
// plus two Version1 journal patches, refit(learner 2, seed 2) and then
// refit(learner 0, seed 3) with alphas {0.5, 0.25, 0.125}. The store must
// load to exactly that delta, the same bits a packed rewrite of it loads
// to, and must keep replaying after packed patches are appended to its
// Version1 journal.
func TestDeltaStoreReadsV1Records(t *testing.T) {
	src := filepath.Join("testdata", "v1store")
	f, err := os.Open(filepath.Join(src, "base.bhde"))
	if err != nil {
		t.Fatal(err)
	}
	base, err := boosthd.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	fp := base.Fingerprint()

	want := testDelta(t, base, []int{0, 2}, 1)
	want = refit(t, base, want, 2, 2)
	want = refit(t, base, want, 0, 3)
	want.Alphas = []float64{0.5, 0.25, 0.125}
	if sig := signDelta(want); sig != v1StoreSig {
		t.Fatalf("rebuilt delta signs %#016x, want %#016x: the fixture recipe no longer reproduces the store", sig, v1StoreSig)
	}

	dir := t.TempDir()
	for _, name := range []string{"w1.bhdt", "w1.bhdtj"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	store := NewFileDeltaStore(dir)
	if rec, err := os.ReadFile(store.path("w1")); err != nil || rec[len(wire.MagicTenant)] != wire.Version1 {
		t.Fatalf("fixture record is not Version1 (%v)", err)
	}
	if vs := journalVersions(t, store.journalPath("w1")); string(vs) != string([]byte{wire.Version1, wire.Version1}) {
		t.Fatalf("fixture journal versions %v, want two Version1 patches", vs)
	}
	got, err := store.Load("w1", base, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDelta(want, got) || signDelta(got) != v1StoreSig {
		t.Fatal("Version1 store loads to different delta bits")
	}

	// A packed rewrite of the same delta loads to the same bits.
	pdir := t.TempDir()
	if err := NewFileDeltaStore(pdir).Save("w1", want, fp); err != nil {
		t.Fatal(err)
	}
	packed, err := NewFileDeltaStore(pdir).Load("w1", base, fp)
	if err != nil {
		t.Fatal(err)
	}
	if signDelta(packed) != v1StoreSig {
		t.Fatal("packed record loads to different bits than the Version1 store")
	}

	// Refits append packed patches behind the Version1 ones; a restart
	// replays the mixed journal to the newest state.
	next := refit(t, base, got, 2, 4)
	if err := store.Save("w1", next, fp); err != nil {
		t.Fatal(err)
	}
	next = refit(t, base, next, 0, 5)
	if err := store.Save("w1", next, fp); err != nil {
		t.Fatal(err)
	}
	vs := journalVersions(t, store.journalPath("w1"))
	if string(vs) != string([]byte{wire.Version1, wire.Version1, wire.VersionPacked, wire.VersionPacked}) {
		t.Fatalf("journal versions %v after two refits, want two Version1 then two packed patches", vs)
	}
	replayed, err := NewFileDeltaStore(dir).Load("w1", base, fp)
	if err != nil {
		t.Fatal(err)
	}
	if !sameDelta(next, replayed) {
		t.Fatal("Version1 record with packed patches replays to a different delta")
	}
}
