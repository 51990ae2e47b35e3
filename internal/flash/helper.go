package flash

import (
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"

	"repro/internal/cache"
	"repro/internal/failpoint"
)

// jobKind selects the helper operation.
type jobKind int

const (
	// jobStat resolves a path: stat, directory/index handling,
	// permission checks — the pathname translation helper of §5.2.
	jobStat jobKind = iota
	// jobFill is the disk-read helper of §3.4: it streams an entire file
	// through a single-flight cache.Fill — one sequential pass touching
	// views of the file's mapping, as in the paper, publishing chunk
	// after chunk no matter how many requests coalesced onto it. It is
	// the only producer of chunks; a proxied key's is the mount's origin
	// exchange. The job reports through the fill, not a done callback.
	jobFill
)

// fpDiskRead intercepts every chunk-sized disk load of a fill pass
// (mapped or read) before it happens, with args (fsPath string, off
// int64). A nil-returning hook observes loads — counting them to prove
// miss storms coalesce, or gating a fill's progress — while an
// error-returning hook injects a read failure: the fill fails with the
// error, waking every coalesced subscriber. Latency hooks model a slow
// disk; they run on the helper goroutine, never the loop.
var fpDiskRead = failpoint.New("flash/disk-read")

// fpMapFile is evaluated before a disk helper asks for a file's
// mapping, with args (fsPath string). An error return stands in for
// mmap(2) refusing the file: the helper takes the read path for that
// job instead — which is how the suites reach, on Linux, the only path
// other platforms have.
var fpMapFile = failpoint.New("flash/map-file")

// helperJob is one unit of potentially blocking filesystem work.
type helperJob struct {
	kind     jobKind
	fsPath   string
	listings bool // generate a listing when the index file is missing (jobStat)
	// file is an acquired reference to the path entry's descriptor for
	// a file's jobFill. The submitter pins it; the helper releases the
	// pin once the pass is done, so path-cache eviction can never close
	// the descriptor under the load.
	file *cache.FileRef
	// fill is the jobFill target; results flow through it directly.
	fill *cache.Fill
	// origin is the mount that produces a proxied key's fill (jobFill).
	origin *proxyHandler
	// done is posted to the event loop with the result (nil for
	// jobFill, whose subscribers are woken through the fill).
	done func(helperResult)
}

// helperResult carries a job's outcome.
type helperResult struct {
	err     error
	status  int // suggested HTTP status when err != nil
	fsPath  string
	size    int64
	modTime int64
	data    []byte
	// file is the descriptor opened by a stat job. Ownership passes to
	// the event loop, which caches it in the path entry (the analogue
	// of Flash keeping file mappings between requests) and closes it on
	// invalidation or eviction.
	file *os.File
	// isListing marks data as a generated directory listing.
	isListing bool
}

// helperPool runs the blocking-work goroutines. Jobs queue without
// bound (slice + cond) so the event loop never blocks submitting.
type helperPool struct {
	sh *shard
	mu sync.Mutex
	cv *sync.Cond
	q  []helperJob
	// jobs counts submissions. Atomic because fills are submitted from
	// other shards' loops; folded into Stats.HelperJobs at snapshot.
	jobs atomic.Uint64
	// mapFallbacks counts fill jobs that had to read because the file
	// could not be mapped (Stats.MapFallbacks); the proxy counters, the
	// outcomes of this pool's origin exchanges.
	mapFallbacks                             atomic.Uint64
	proxyFills, proxyRevalidated, proxyStale atomic.Uint64

	stopped bool
	wg      sync.WaitGroup
}

func newHelperPool(sh *shard, n int) *helperPool {
	p := &helperPool{sh: sh}
	p.cv = sync.NewCond(&p.mu)
	for i := 0; i < n; i++ {
		p.wg.Add(1)
		go p.run()
	}
	return p
}

// submit queues a job. Safe from any event loop (never blocks).
func (p *helperPool) submit(job helperJob) {
	p.jobs.Add(1)
	p.mu.Lock()
	p.q = append(p.q, job)
	p.mu.Unlock()
	p.cv.Signal()
}

// depth reports the pending-job backlog — the shedding watermark
// signal (Config.ShedQueueDepth). Called only on miss paths, so the
// brief lock never taxes warm hits.
func (p *helperPool) depth() int {
	p.mu.Lock()
	n := len(p.q)
	p.mu.Unlock()
	return n
}

// stop terminates the pool after the queue drains.
func (p *helperPool) stop() {
	p.mu.Lock()
	p.stopped = true
	p.mu.Unlock()
	p.cv.Broadcast()
	p.wg.Wait()
}

func (p *helperPool) run() {
	defer p.wg.Done()
	for {
		p.mu.Lock()
		for len(p.q) == 0 && !p.stopped {
			p.cv.Wait()
		}
		if len(p.q) == 0 && p.stopped {
			p.mu.Unlock()
			return
		}
		job := p.q[0]
		p.q = p.q[1:]
		p.mu.Unlock()

		res := p.execute(job)
		if job.done != nil {
			// Completion notification to the server process, as over
			// the paper's IPC pipe. (Fill jobs notify through the fill
			// instead.)
			p.sh.post(func() { job.done(res) })
		}
	}
}

// execute performs the blocking work on the helper's own goroutine.
func (p *helperPool) execute(job helperJob) helperResult {
	switch {
	case job.kind == jobStat:
		return statJob(job.fsPath, job.listings)
	case job.origin != nil:
		job.origin.produce(p, job.fill)
	default:
		p.fillJob(job)
	}
	return helperResult{}
}

// indexFile is the file a directory request resolves to.
const indexFile = "index.html"

// statJob resolves fsPath (following a directory to its index file, or
// a generated listing when allowed), opens it, and returns its identity
// plus the open descriptor.
func statJob(fsPath string, listings bool) helperResult {
	fsPath = filepath.Clean(fsPath)
	f, err := os.Open(fsPath)
	if err == nil {
		var st os.FileInfo
		st, err = f.Stat()
		if err == nil && st.IsDir() {
			f.Close()
			dir := fsPath
			fsPath = filepath.Join(fsPath, indexFile)
			f, err = os.Open(fsPath)
			if err != nil && listings {
				res := listingJob(dir)
				res.isListing = res.err == nil
				return res
			}
			if err == nil {
				st, err = f.Stat()
			}
		}
		if err == nil {
			if !st.Mode().IsRegular() {
				f.Close()
				return helperResult{err: os.ErrInvalid, status: 403}
			}
			return helperResult{
				fsPath:  fsPath,
				size:    st.Size(),
				modTime: st.ModTime().Unix(),
				file:    f,
			}
		}
		f.Close()
	}
	status := 404
	if os.IsPermission(err) {
		status = 403
	}
	return helperResult{err: err, status: status}
}

// mapping returns the file's parked whole-file mapping for a disk
// helper to slice. nil means the file cannot be mapped here — no mmap
// on this platform, a filesystem that refuses, the process out of map
// slots — and this job reads its bytes instead (counted in
// Stats.MapFallbacks; never an error to the client).
func (p *helperPool) mapping(fsPath string, ref *cache.FileRef, size int64) *cache.MmapRef {
	if !failpoint.Armed() || fpMapFile.Eval(fsPath) == nil {
		if m, err := ref.Map(size); err == nil {
			return m
		}
	}
	p.mapFallbacks.Add(1)
	return nil
}

// checkIdentity returns cache.ErrFillStale unless f still is the file
// generation (size, modTime) a fill was started under. The producer
// asks after it has touched or read a chunk's bytes and before it
// publishes them: a rewrite that lands between the two then fails the
// fill instead of putting new-generation bytes under the old tag,
// which a check made before the bytes were taken cannot promise.
func checkIdentity(f *os.File, size, modTime int64) error {
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.ModTime().Unix() != modTime || st.Size() != size {
		return cache.ErrFillStale
	}
	return nil
}

// fillJob is the producer of one single-flight fill: a sequential
// pass over the file, publishing each chunk into the fill (which
// inserts it pinned into the shared tier and wakes the parked
// subscribers) — serve-while-fill, the paper's helper process married
// to the PackageReader append-and-wake idiom. Identity is re-checked
// for every chunk, after its bytes were touched or read and before
// they are published, so a file swapped or rewritten mid-fill fails
// the fill (ErrFillStale) instead of publishing bytes from two
// generations.
//
// The producer owns no mapping. It slices the one parked on the file's
// FileRef — mapped by whichever helper needed it first, kept for as
// long as the descriptor — and publishes each chunk as a refcounted
// view of it, touched just before it goes out so the faults land here
// on the helper: a refill after eviction costs the page faults and
// nothing else. A touch that faults — the file was truncated under the
// mapping — fails the fill. PublishMapped consumes each view's
// reference on every branch. A file that cannot be mapped is read
// chunk by chunk into heap buffers instead. The pass reads through the
// path entry's descriptor, pinned by the submitter (job.file), and
// releases that pin when it is done.
func (p *helperPool) fillJob(job helperJob) {
	fill, ref := job.fill, job.file
	defer ref.Release()
	f := ref.File()
	mapping := p.mapping(job.fsPath, ref, fill.Size())
	for i := 0; i < fill.NumChunks(); i++ {
		off, n := fill.ChunkRange(i)
		if failpoint.Armed() {
			if err := fpDiskRead.Eval(job.fsPath, off); err != nil {
				fill.Fail(err)
				return
			}
		}
		var sub *cache.MmapRef
		var buf []byte
		var err error
		if mapping != nil {
			sub = mapping.Slice(off, n)
			err = sub.Touch()
		} else {
			buf = make([]byte, n)
			_, err = io.ReadFull(io.NewSectionReader(f, off, n), buf)
		}
		if err == nil {
			err = checkIdentity(f, fill.Size(), fill.ModTime())
		}
		if err != nil {
			if sub != nil {
				sub.Release()
			}
			fill.Fail(err)
			return
		}
		if sub != nil {
			if !fill.PublishMapped(sub) {
				return
			}
		} else if !fill.Publish(buf) {
			return
		}
	}
}
