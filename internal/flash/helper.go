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
	// jobChunk brings one chunk of file data into memory — the
	// disk-read helper of §3.4: mmap + touch, as in the paper.
	jobChunk
	// jobFill streams an entire file through a single-flight
	// cache.Fill: one sequential disk pass publishing chunk after
	// chunk, no matter how many requests coalesced onto it. The job
	// reports through the fill, not a done callback.
	jobFill
	// jobProxy runs a reverse-proxy origin round trip (metadata fetch
	// or body refill); the closure reports through its own loop posts
	// and fills, like jobFill.
	jobProxy
)

// fpDiskRead intercepts every chunk-sized disk load (per-chunk jobs
// and fill passes alike, mapped or read) before it happens, with args
// (fsPath string, off int64). A nil-returning hook observes loads —
// counting them to prove miss storms coalesce, or gating a fill's
// progress — while an error-returning hook injects a read failure: the
// per-chunk path answers 500, a fill fails with the error (waking
// every coalesced subscriber). Latency hooks model a slow disk; they
// run on the helper goroutine, never the loop.
var fpDiskRead = failpoint.New("flash/disk-read")

// fpMapFile is evaluated before a disk helper maps a file, with args
// (fsPath string). An error return stands in for mmap(2) refusing the
// file: the helper takes the read path for that job instead — which is
// how the suites reach, on Linux, the only path other platforms have.
var fpMapFile = failpoint.New("flash/map-file")

// helperJob is one unit of potentially blocking filesystem work.
type helperJob struct {
	kind     jobKind
	fsPath   string
	index    string // index file name for directory requests (jobStat)
	listings bool   // generate a listing when the index is missing
	off, n   int64  // chunk range (jobChunk)
	// file is an acquired reference to the cached descriptor for
	// jobChunk and jobFill (nil = open fsPath instead). The submitter
	// pins it; the helper releases the pin once the read is done, so
	// path-cache eviction can never close the descriptor under the
	// load.
	file *cache.FileRef
	// fill is the jobFill target; results flow through it directly.
	fill *cache.Fill
	// fn is the jobProxy closure (an origin fetch).
	fn func()
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
	// mapped carries a chunk job's mmap region (data is its byte view);
	// nil when the helper had to read instead. The helper hands the
	// reference to the done callback, which either adopts it into the
	// cache (insertChunk) or releases it (releaseMapped) on the paths
	// that discard the result.
	mapped *cache.MmapRef
	// isListing marks data as a generated directory listing.
	isListing bool
}

// releaseMapped drops the result's mapping reference on paths that
// discard the result instead of inserting it (error, stale identity).
func (r *helperResult) releaseMapped() {
	if r.mapped != nil {
		r.mapped.Release()
		r.mapped = nil
	}
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
	switch job.kind {
	case jobStat:
		return statJob(job.fsPath, job.index, job.listings)
	case jobChunk:
		return chunkJob(job.fsPath, job.file, job.off, job.n)
	case jobFill:
		fillJob(job.fsPath, job.file, job.fill)
		return helperResult{}
	case jobProxy:
		job.fn()
		return helperResult{}
	default:
		return helperResult{err: os.ErrInvalid, status: 500}
	}
}

// statJob resolves fsPath (following a directory to its index file, or
// a generated listing when allowed), opens it, and returns its identity
// plus the open descriptor.
func statJob(fsPath, index string, listings bool) helperResult {
	fsPath = filepath.Clean(fsPath)
	f, err := os.Open(fsPath)
	if err == nil {
		var st os.FileInfo
		st, err = f.Stat()
		if err == nil && st.IsDir() {
			f.Close()
			dir := fsPath
			fsPath = filepath.Join(fsPath, index)
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

// mapFile maps [off, off+n) of f for a disk helper. nil means the file
// cannot be mapped here — no mmap on this platform, a filesystem that
// refuses, the process out of map slots — and the caller reads it.
func mapFile(fsPath string, f *os.File, off, n int64, sequential bool) *cache.MmapRef {
	if failpoint.Armed() && fpMapFile.Eval(fsPath) != nil {
		return nil
	}
	mr, err := cache.MapChunk(f, off, n, sequential)
	if err != nil {
		return nil
	}
	return mr
}

// chunkJob loads [off, off+n) of the file through the cached descriptor
// (opening one only if the cache had none), re-checking identity so the
// caches can detect modified files (§5.3). The submitter's descriptor
// pin is released here, once the load is done.
//
// The chunk is mapped — the paper's "mmap + touch", with the faults
// taken here on the helper — and the result carries the mapping
// reference for the loop to adopt. A file that cannot be mapped is
// read into a heap buffer instead (ReadAt is safe for concurrent use
// of one descriptor across helpers); the two differ in transport,
// never in bytes.
func chunkJob(fsPath string, ref *cache.FileRef, off, n int64) helperResult {
	var f *os.File
	if ref != nil {
		defer ref.Release()
		f = ref.File()
	}
	if f == nil {
		opened, err := os.Open(fsPath)
		if err != nil {
			return helperResult{err: err, status: 404}
		}
		defer opened.Close()
		f = opened
	}
	st, err := f.Stat()
	if err != nil {
		return helperResult{err: err, status: 404}
	}
	if failpoint.Armed() {
		if err := fpDiskRead.Eval(fsPath, off); err != nil {
			return helperResult{err: err, status: 500}
		}
	}
	res := helperResult{fsPath: fsPath, size: st.Size(), modTime: st.ModTime().Unix()}
	if mr := mapFile(fsPath, f, off, n, false); mr != nil {
		if err := mr.Touch(); err != nil {
			mr.Release()
			return helperResult{err: err, status: 500}
		}
		res.data, res.mapped = mr.Bytes(), mr
		return res
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(io.NewSectionReader(f, off, n), buf); err != nil {
		return helperResult{err: err, status: 500}
	}
	res.data = buf
	return res
}

// fillJob is the producer of one single-flight fill: a sequential
// pass over the file, publishing each chunk into the fill (which
// inserts it pinned into the shared tier and wakes the parked
// subscribers) — serve-while-fill, the paper's helper process married
// to the PackageReader append-and-wake idiom. Identity is re-checked
// before every chunk, exactly as often as the per-chunk path stats, so
// a file swapped mid-fill fails the fill (ErrFillStale) instead of
// publishing bytes from two generations.
//
// The producer maps the WHOLE file once (lazily, madvise SEQUENTIAL —
// this is the one-pass read) and publishes each chunk as a refcounted
// view into that one mapping, touched just before it goes out so the
// faults land here on the helper: a multi-chunk file costs one
// mmap/munmap pair, not one per chunk. A touch that faults — the file
// was truncated under the mapping since the identity check — fails the
// fill. PublishMapped consumes each view's reference on every branch;
// the mapping itself unmaps when the last chunk view (cache chunk, L1
// replica, in-flight response) lets go. A file that cannot be mapped
// is read chunk by chunk into heap buffers instead.
func fillJob(fsPath string, ref *cache.FileRef, fill *cache.Fill) {
	var f *os.File
	if ref != nil {
		defer ref.Release()
		f = ref.File()
	}
	if f == nil {
		opened, err := os.Open(fsPath)
		if err != nil {
			fill.Fail(err)
			return
		}
		defer opened.Close()
		f = opened
	}
	mapping := mapFile(fsPath, f, 0, fill.Size(), true)
	if mapping != nil {
		defer mapping.Release()
	}
	for i := 0; i < fill.NumChunks(); i++ {
		st, err := f.Stat()
		if err != nil {
			fill.Fail(err)
			return
		}
		if st.ModTime().Unix() != fill.ModTime() || st.Size() != fill.Size() {
			fill.Fail(cache.ErrFillStale)
			return
		}
		off, n := fill.ChunkRange(i)
		if failpoint.Armed() {
			if err := fpDiskRead.Eval(fsPath, off); err != nil {
				fill.Fail(err)
				return
			}
		}
		if mapping != nil {
			sub := mapping.Slice(off, n)
			if err := sub.Touch(); err != nil {
				sub.Release()
				fill.Fail(err)
				return
			}
			if !fill.PublishMapped(sub) {
				return
			}
			continue
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(io.NewSectionReader(f, off, n), buf); err != nil {
			fill.Fail(err)
			return
		}
		if !fill.Publish(buf) {
			return
		}
	}
}
