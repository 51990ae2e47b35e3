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
	// disk-read helper of §3.4: touch a view of the file's mapping, as
	// in the paper.
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
	index    string // index file name for directory requests (jobStat)
	listings bool   // generate a listing when the index is missing
	off, n   int64  // chunk range (jobChunk)
	size     int64  // file size under the submitter's identity (jobChunk): the extent to map
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
	// mapped carries a chunk job's view of the file's mapping (data is
	// its bytes); nil when the helper had to read instead. The helper
	// hands the view's reference to the done callback, which either
	// adopts it into the cache (insertChunk) or releases it
	// (releaseMapped) on the paths that discard the result.
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
	// mapFallbacks counts chunk and fill jobs that had to read because
	// the file could not be mapped (Stats.MapFallbacks).
	mapFallbacks atomic.Uint64

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
		return p.chunkJob(job)
	case jobFill:
		p.fillJob(job)
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

// openRef returns an acquired reference to the job's file: the cached
// descriptor the submitter pinned, or — the cache had none — a private
// one opened here, which lives (with anything mapped through it) until
// the job and the chunks it produced let go. Either way the caller
// releases it when the load is done.
func (p *helperPool) openRef(fsPath string, ref *cache.FileRef) (*cache.FileRef, error) {
	if ref != nil {
		return ref, nil
	}
	f, err := os.Open(fsPath)
	if err != nil {
		return nil, err
	}
	return cache.NewFileRef(f, &p.sh.srv.mapStats), nil
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

// chunkJob loads [off, off+n) of a file of the given size through the
// cached descriptor (opening one only if the cache had none) and
// reports the identity the file has once the bytes were touched or
// read — not before: a rewrite between the two must show — so the
// caches can detect modified files (§5.3). The submitter's descriptor pin is
// released here, once the load is done.
//
// The chunk is a view of the file's parked mapping, touched here — the
// paper's "mmap + touch", with the faults taken on the helper — and
// the result carries the view's reference for the loop to adopt. A
// file that cannot be mapped is read into a heap buffer instead
// (ReadAt is safe for concurrent use of one descriptor across
// helpers); the two differ in transport, never in bytes.
func (p *helperPool) chunkJob(job helperJob) helperResult {
	ref, err := p.openRef(job.fsPath, job.file)
	if err != nil {
		return helperResult{err: err, status: 404}
	}
	defer ref.Release()
	f := ref.File()
	if failpoint.Armed() {
		if err := fpDiskRead.Eval(job.fsPath, job.off); err != nil {
			return helperResult{err: err, status: 500}
		}
	}
	res := helperResult{fsPath: job.fsPath}
	if m := p.mapping(job.fsPath, ref, job.size); m != nil {
		res.mapped = m.Slice(job.off, job.n)
		if err := res.mapped.Touch(); err != nil {
			res.releaseMapped()
			return helperResult{err: err, status: 500}
		}
		res.data = res.mapped.Bytes()
	} else {
		res.data = make([]byte, job.n)
		if _, err := io.ReadFull(io.NewSectionReader(f, job.off, job.n), res.data); err != nil {
			return helperResult{err: err, status: 500}
		}
	}
	st, err := f.Stat()
	if err != nil {
		res.releaseMapped()
		return helperResult{err: err, status: 404}
	}
	res.size, res.modTime = st.Size(), st.ModTime().Unix()
	return res
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
// chunk by chunk into heap buffers instead.
func (p *helperPool) fillJob(job helperJob) {
	fill := job.fill
	ref, err := p.openRef(job.fsPath, job.file)
	if err != nil {
		fill.Fail(err)
		return
	}
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
