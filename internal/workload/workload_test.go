package workload

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestSingleFile(t *testing.T) {
	tr := SingleFile(10240)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumFiles() != 1 || tr.DatasetBytes() != 10240 {
		t.Fatalf("files=%d dataset=%d", tr.NumFiles(), tr.DatasetBytes())
	}
	if tr.MeanTransfer() != 10240 {
		t.Fatalf("MeanTransfer = %v", tr.MeanTransfer())
	}
}

func TestGenerateBasicProperties(t *testing.T) {
	cfg := SyntheticConfig{
		Name:          "test",
		NumFiles:      500,
		DatasetBytes:  20 << 20,
		ZipfAlpha:     0.8,
		SizeMeanBytes: 12 << 10,
		SizeSigma:     1.3,
		MinSize:       100,
		MaxSize:       1 << 20,
		Requests:      20000,
		Seed:          7,
	}
	tr := Generate(cfg)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumFiles() != 500 {
		t.Fatalf("NumFiles = %d", tr.NumFiles())
	}
	if len(tr.Entries) != 20000 {
		t.Fatalf("Entries = %d", len(tr.Entries))
	}
	ds := tr.DatasetBytes()
	if ds < 18<<20 || ds > 22<<20 {
		t.Fatalf("DatasetBytes = %d, want ~20MB", ds)
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Owlnet())
	b := Generate(Owlnet())
	if len(a.Entries) != len(b.Entries) {
		t.Fatal("lengths differ")
	}
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatalf("entry %d differs: %v vs %v", i, a.Entries[i], b.Entries[i])
		}
	}
}

func TestGenerateZipfSkew(t *testing.T) {
	tr := Generate(RiceECE())
	counts := make(map[string]int)
	for _, e := range tr.Entries {
		counts[e.Path]++
	}
	// The most popular file should receive far more than the mean
	// request count.
	max := 0
	for _, c := range counts {
		if c > max {
			max = c
		}
	}
	mean := float64(len(tr.Entries)) / float64(tr.NumFiles())
	if float64(max) < 20*mean {
		t.Fatalf("max count %d not skewed (mean %.1f)", max, mean)
	}
}

func TestWorkingSetSmallerThanDataset(t *testing.T) {
	tr := Generate(RiceECE())
	ws := tr.WorkingSetBytes(0.9)
	ds := tr.DatasetBytes()
	if ws <= 0 || ws >= ds {
		t.Fatalf("working set %d not in (0, %d)", ws, ds)
	}
}

func TestPopularSmallBias(t *testing.T) {
	biased := Generate(RiceCS())
	// Mean transfer (request-weighted) should be below the file-weighted
	// mean when popular files skew small.
	fileMean := float64(biased.DatasetBytes()) / float64(biased.NumFiles())
	if biased.MeanTransfer() >= fileMean {
		t.Fatalf("mean transfer %.0f not below file mean %.0f despite bias",
			biased.MeanTransfer(), fileMean)
	}
}

func TestTraceProfilesDiffer(t *testing.T) {
	cs := Generate(RiceCS())
	owl := Generate(Owlnet())
	if cs.DatasetBytes() <= owl.DatasetBytes() {
		t.Fatal("CS dataset must exceed Owlnet (paper §6.2)")
	}
	if cs.MeanTransfer() <= owl.MeanTransfer() {
		t.Fatal("CS mean transfer must exceed Owlnet (paper §6.2)")
	}
}

func TestTruncate(t *testing.T) {
	tr := Generate(RiceECE())
	for _, mb := range []int64{15, 60, 150} {
		target := mb << 20
		cut := tr.Truncate(target)
		if err := cut.Validate(); err != nil {
			t.Fatal(err)
		}
		ds := cut.DatasetBytes()
		if ds > target {
			t.Fatalf("truncated dataset %d exceeds target %d", ds, target)
		}
		if float64(ds) < 0.9*float64(target) {
			t.Fatalf("truncated dataset %d too far below target %d", ds, target)
		}
		if len(cut.Entries) == 0 || len(cut.Entries) >= len(tr.Entries) {
			t.Fatalf("entries = %d of %d", len(cut.Entries), len(tr.Entries))
		}
	}
}

func TestTruncateLargerThanDatasetKeepsAll(t *testing.T) {
	tr := Generate(Owlnet())
	cut := tr.Truncate(tr.DatasetBytes() * 2)
	if len(cut.Entries) != len(tr.Entries) {
		t.Fatal("over-large truncation dropped entries")
	}
}

// Property: truncation never exceeds the requested dataset size — save
// that a trace always keeps its first file, however small the target —
// and the result is always internally consistent.
func TestPropertyTruncateBounds(t *testing.T) {
	base := Generate(SyntheticConfig{
		Name: "p", NumFiles: 300, DatasetBytes: 10 << 20, ZipfAlpha: 0.7,
		SizeMeanBytes: 8 << 10, SizeSigma: 1.2, MinSize: 64, MaxSize: 1 << 20,
		Requests: 5000, Seed: 11,
	})
	first := base.Entries[0].Path
	f := func(kb uint16) bool {
		target := int64(kb)<<10 + 64
		cut := base.Truncate(target)
		if cut.Validate() != nil {
			return false
		}
		if cut.DatasetBytes() <= target {
			return true
		}
		// Over the target: only the trace's first file, alone and whole.
		_, kept := cut.Files[first]
		return len(cut.Files) == 1 && kept && cut.DatasetBytes() == base.Files[first]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestZipfCDFMonotone(t *testing.T) {
	cdf := zipfCDF(1000, 0.8)
	for i := 1; i < len(cdf); i++ {
		if cdf[i] <= cdf[i-1] {
			t.Fatal("CDF not strictly increasing")
		}
	}
	if math.Abs(cdf[len(cdf)-1]-1) > 1e-9 {
		t.Fatalf("CDF does not end at 1: %v", cdf[len(cdf)-1])
	}
}

func TestSampleCDFBounds(t *testing.T) {
	cdf := zipfCDF(100, 1.0)
	if sampleCDF(cdf, 0) != 0 {
		t.Fatal("u=0 must sample rank 0")
	}
	if got := sampleCDF(cdf, 0.9999999); got != 99 && got != 98 {
		t.Fatalf("u~1 sampled %d", got)
	}
}

// --- CLF import/export ---

func TestCLFRoundTrip(t *testing.T) {
	orig := Generate(SyntheticConfig{
		Name: "clf", NumFiles: 50, DatasetBytes: 1 << 20, ZipfAlpha: 0.8,
		SizeMeanBytes: 8 << 10, SizeSigma: 1.0, MinSize: 64, MaxSize: 256 << 10,
		Requests: 500, Seed: 3,
	})
	var buf bytes.Buffer
	if err := ToCLF(orig, &buf); err != nil {
		t.Fatal(err)
	}
	got, skipped, err := FromCLF("clf", &buf)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 {
		t.Fatalf("skipped = %d", skipped)
	}
	if len(got.Entries) != len(orig.Entries) {
		t.Fatalf("entries = %d, want %d", len(got.Entries), len(orig.Entries))
	}
	for i := range got.Entries {
		if got.Entries[i].Path != orig.Entries[i].Path {
			t.Fatalf("entry %d path %q != %q", i, got.Entries[i].Path, orig.Entries[i].Path)
		}
	}
	if got.DatasetBytes() != orig.DatasetBytes() {
		t.Fatalf("dataset %d != %d", got.DatasetBytes(), orig.DatasetBytes())
	}
}

func TestFromCLFSkipsNoise(t *testing.T) {
	log := strings.Join([]string{
		`h - - [06/Jun/1999:00:00:00 +0000] "GET /good.html HTTP/1.0" 200 500`,
		`h - - [06/Jun/1999:00:00:01 +0000] "GET /missing.html HTTP/1.0" 404 200`,
		`h - - [06/Jun/1999:00:00:02 +0000] "POST /form HTTP/1.0" 200 100`,
		`h - - [06/Jun/1999:00:00:03 +0000] "GET /nm.html HTTP/1.0" 304 -`,
		`garbage line`,
		`h - - [06/Jun/1999:00:00:04 +0000] "GET /good.html?q=1 HTTP/1.0" 200 500`,
	}, "\n")
	tr, skipped, err := FromCLF("noise", strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 4 {
		t.Fatalf("skipped = %d, want 4", skipped)
	}
	if tr.NumFiles() != 1 || len(tr.Entries) != 2 {
		t.Fatalf("files=%d entries=%d", tr.NumFiles(), len(tr.Entries))
	}
}

func TestFromCLFUsesLargestSize(t *testing.T) {
	log := strings.Join([]string{
		`h - - [06/Jun/1999:00:00:00 +0000] "GET /f HTTP/1.0" 200 100`,
		`h - - [06/Jun/1999:00:00:01 +0000] "GET /f HTTP/1.0" 200 900`,
	}, "\n")
	tr, _, err := FromCLF("sz", strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Files["/f"] != 900 {
		t.Fatalf("size = %d, want 900 (largest logged)", tr.Files["/f"])
	}
	for _, e := range tr.Entries {
		if e.Size != 900 {
			t.Fatal("entry sizes not normalized")
		}
	}
}

func BenchmarkGenerateECE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		Generate(RiceECE())
	}
}

func BenchmarkSampleCDF(b *testing.B) {
	cdf := zipfCDF(12000, 0.8)
	r := 0.0
	for i := 0; i < b.N; i++ {
		r += float64(sampleCDF(cdf, float64(i%1000)/1000))
	}
	_ = r
}
