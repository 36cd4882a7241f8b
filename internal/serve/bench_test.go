package serve

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"boosthd/internal/infer"
)

// benchFixture caches one trained paper-scale model across benchmarks.
var (
	benchOnce sync.Once
	benchEng  map[string]*infer.Engine
	benchRows [][]float64
)

func benchSetup(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		m, X, _ := fixture(b, 10000, 10)
		be, err := infer.NewBinaryEngine(m)
		if err != nil {
			b.Fatal(err)
		}
		benchEng = map[string]*infer.Engine{
			"float":  infer.NewEngine(m),
			"binary": be,
		}
		benchRows = X
	})
}

// BenchmarkServeDirect measures per-request engine calls, one one-row
// PredictBatch per request, from concurrent clients — the baseline the
// micro-batcher is judged against.
func BenchmarkServeDirect(b *testing.B) {
	benchSetup(b)
	for _, backend := range []string{"float", "binary"} {
		eng := benchEng[backend]
		for _, clients := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/clients=%d", backend, clients), func(b *testing.B) {
				b.SetParallelism(clients)
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						j := i % len(benchRows)
						if _, err := eng.PredictBatch(benchRows[j : j+1]); err != nil {
							b.Error(err)
							return
						}
						i++
					}
				})
			})
		}
	}
}

// BenchmarkServeBatched measures the same load through the micro-batcher.
func BenchmarkServeBatched(b *testing.B) {
	benchSetup(b)
	for _, backend := range []string{"float", "binary"} {
		eng := benchEng[backend]
		for _, clients := range []int{1, 8, 64} {
			b.Run(fmt.Sprintf("%s/clients=%d", backend, clients), func(b *testing.B) {
				s, err := NewServer(eng, Config{})
				if err != nil {
					b.Fatal(err)
				}
				defer s.Close()
				b.SetParallelism(clients)
				b.ReportAllocs()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						if _, err := s.Predict(benchRows[i%len(benchRows)]); err != nil {
							b.Error(err)
							return
						}
						i++
					}
				})
				b.StopTimer()
				if st := s.Stats(); st.Batches > 0 {
					b.ReportMetric(st.MeanBatch, "rows/batch")
				}
			})
		}
	}
}

// benchRegistry builds a registry with the given shard count and a
// population of resident tenants, shared by the resolve benchmarks.
func benchRegistry(b *testing.B, shards, tenants int) (*TenantRegistry, []string, func()) {
	b.Helper()
	benchSetup(b)
	eng := benchEng["binary"]
	s, err := NewServer(eng, Config{})
	if err != nil {
		b.Fatal(err)
	}
	reg, err := NewTenantRegistry(s, TenantRegistryConfig{
		Store:     NewFileDeltaStore(b.TempDir()),
		CacheSize: 1024,
		Shards:    shards,
	})
	if err != nil {
		s.Close()
		b.Fatal(err)
	}
	m := eng.Model()
	ids := make([]string, tenants)
	for i := range ids {
		ids[i] = fmt.Sprintf("bench-%03d", i)
		if err := reg.Install(ids[i], testDelta(b, m, []int{i % len(m.Learners)}, int64(i))); err != nil {
			s.Close()
			b.Fatal(err)
		}
	}
	return reg, ids, func() { s.Close() }
}

// BenchmarkTenantResolve pins the single-caller tenant hot path: a
// resident cache hit is one FNV shard pick, one map lookup, and one LRU
// splice under the shard lock, with no allocation — the per-request
// overhead every tenant-routed predict pays on top of the engine call.
func BenchmarkTenantResolve(b *testing.B) {
	reg, ids, done := benchRegistry(b, 0, 256)
	defer done()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := reg.Resolve(ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTenantResolveParallel drives resolves from many goroutines
// with a skewed tenant mix (a handful of hot tenants plus a long tail),
// the contention profile the lock-striped shards exist for.
func BenchmarkTenantResolveParallel(b *testing.B) {
	reg, ids, done := benchRegistry(b, 0, 256)
	defer done()
	b.SetParallelism(16)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			// Zipf-ish skew without an RNG in the loop: half the
			// resolves hit one of 8 hot tenants, the rest walk the tail.
			var id string
			if i&1 == 0 {
				id = ids[i%8]
			} else {
				id = ids[i%len(ids)]
			}
			if _, err := reg.Resolve(id); err != nil {
				b.Error(err)
				return
			}
			i++
		}
	})
}

// BenchmarkServeEngineBatchSizes pins the amortization curve of the
// binary engine's batch kernel — the per-row cost the batcher rides as
// coalesced batches grow.
func BenchmarkServeEngineBatchSizes(b *testing.B) {
	benchSetup(b)
	eng := benchEng["binary"]
	for _, bs := range []int{1, 8, 32, 64} {
		if bs > len(benchRows) {
			continue
		}
		b.Run(fmt.Sprintf("rows=%d", bs), func(b *testing.B) {
			rows := benchRows[:bs]
			start := time.Now()
			for i := 0; i < b.N; i++ {
				if _, err := eng.PredictBatch(rows); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(time.Since(start).Seconds()*1e6/float64(b.N*bs), "µs/row")
		})
	}
}

// BenchmarkTenantColdLoad prices one tenant cache miss end to end at
// paper scale (D=10000, NL=10, 2-learner deltas): the store read and
// decode, the binary view build with its re-quantized overrides, and the
// scrub signature the registry takes of every cold-loaded delta. Record
// reads hit the page cache, as they do for a hot store.
func BenchmarkTenantColdLoad(b *testing.B) {
	benchSetup(b)
	eng := benchEng["binary"]
	m := eng.Model()
	fp := m.Fingerprint()
	store := NewFileDeltaStore(b.TempDir())
	ids := make([]string, 32)
	for i := range ids {
		ids[i] = fmt.Sprintf("cold-%02d", i)
		d := testDelta(b, m, []int{i % len(m.Learners), (i + 3) % len(m.Learners)}, int64(i))
		if err := store.Save(ids[i], d, fp); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := store.Load(ids[i%len(ids)], m, fp)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := eng.WithDelta(d); err != nil {
			b.Fatal(err)
		}
		signDelta(d)
	}
}

// BenchmarkDeltaStoreSave prices FileDeltaStore.Save for a 2-learner
// delta at D=10000, NL=10 on both of its paths: a full-record rewrite
// (temp file, fsync, rename, directory fsync, which every first save and
// every compaction takes) and a one-learner journal append (a single
// unsynced write).
func BenchmarkDeltaStoreSave(b *testing.B) {
	benchSetup(b)
	m := benchEng["binary"].Model()
	fp := m.Fingerprint()
	d0 := testDelta(b, m, []int{1, 4}, 1)
	d1 := refit(b, m, d0, 4, 2)
	for _, tc := range []struct {
		name      string
		threshold int
	}{{"rewrite", 1}, {"append", 1 << 30}} {
		b.Run(tc.name, func(b *testing.B) {
			store := NewFileDeltaStore(b.TempDir())
			store.threshold = tc.threshold
			if err := store.Save("t1", d0, fp); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := d1
				if i%2 == 1 {
					d = d0
				}
				if err := store.Save("t1", d, fp); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
