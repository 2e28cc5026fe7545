package store

import (
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"rdfindexes/internal/codec"
	"rdfindexes/internal/core"
	"rdfindexes/internal/dict"
	"rdfindexes/internal/rdf"
)

// benchFile lazily builds one moderately sized container on disk and
// reuses it across the container benchmarks. The dataset shape (many
// subjects, few predicates, skewed objects) loosely follows the RDF
// benchmark presets, and it carries dictionaries with IRI-shaped terms,
// so a read prices decoding them as serving does.
var benchFile struct {
	once sync.Once
	path string
	st   *Store
	size int64
	err  error
}

func benchContainer(b *testing.B) (string, *Store, int64) {
	b.Helper()
	benchFile.once.Do(func() {
		var ts []core.Triple
		for i := 0; i < 300_000; i++ {
			ts = append(ts, core.Triple{
				S: core.ID(i % 20_011), P: core.ID(i % 19), O: core.ID((i * 31) % 9973),
			})
		}
		x, err := core.Build(core.NewDataset(ts), core.Layout2Tp)
		if err != nil {
			benchFile.err = err
			return
		}
		terms := func(n int, format string) *dict.Dict {
			strs := make([]string, n)
			for i := range strs {
				strs[i] = fmt.Sprintf(format, i)
			}
			d, err := dict.New(strs, dict.DefaultBucketSize)
			if err != nil {
				panic(err)
			}
			return d
		}
		dicts := &rdf.Dicts{
			SO: terms(20_011, "<http://example.org/resource/Entity_%08d>"),
			P:  terms(19, "<http://example.org/ontology/property_%02d>"),
		}
		dir, err := os.MkdirTemp("", "storebench")
		if err != nil {
			benchFile.err = err
			return
		}
		benchFile.path = filepath.Join(dir, "bench.idx")
		benchFile.st = &Store{Index: x, Dicts: dicts}
		if err := Write(benchFile.path, benchFile.st); err != nil {
			benchFile.err = err
			return
		}
		fi, err := os.Stat(benchFile.path)
		if err != nil {
			benchFile.err = err
			return
		}
		benchFile.size = fi.Size()
	})
	if benchFile.err != nil {
		b.Fatal(benchFile.err)
	}
	return benchFile.path, benchFile.st, benchFile.size
}

// BenchmarkWrite measures writing the container (CRC32C is folded into
// the buffered writer, so this is the full serialization cost including
// checksumming, the fsyncs and the rename).
func BenchmarkWrite(b *testing.B) {
	path, st, size := benchContainer(b)
	out := filepath.Join(filepath.Dir(path), "write.idx")
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(out, st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRead measures opening the container: mapping it, verifying
// every section checksum and decoding the sections in place.
func BenchmarkRead(b *testing.B) {
	path, _, size := benchContainer(b)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(path); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerify measures the standalone integrity scan (`rdfstore
// verify`): the same walk as Read, reporting every section.
func BenchmarkVerify(b *testing.B) {
	path, _, size := benchContainer(b)
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := Verify(path)
		if err != nil {
			b.Fatal(err)
		}
		if !rep.OK {
			b.Fatal("bench container failed verification")
		}
	}
}

// BenchmarkChecksumPass isolates the marginal cost verification adds to
// a read: one CRC32C pass over the container bytes. Compare against
// BenchmarkRead to see what fraction of open time checksumming is.
func BenchmarkChecksumPass(b *testing.B) {
	path, _, size := benchContainer(b)
	data, err := os.ReadFile(path)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if crc32.Checksum(data, codec.Castagnoli) == 0 {
			b.Fatal("degenerate checksum")
		}
	}
}
