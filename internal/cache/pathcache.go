package cache

// PathEntry is the result of a pathname translation: the mapping from a
// requested name (e.g. "/~bob/") to the actual file on disk (e.g.
// "/home/users/bob/public_html/index.html"), plus an opaque handle the
// owner associates with the file (the real server stores an *os.File
// independent token; the simulator stores a *simos.File).
type PathEntry struct {
	// Translated is the resolved filesystem path.
	Translated string
	// File is an owner-defined handle for the resolved file.
	File any
	// Size and ModTime mirror the stat results gathered during
	// translation, letting later steps skip a stat.
	Size    int64
	ModTime int64
	// CheckedAt records (in the owner's clock units) when the entry
	// was last validated against the filesystem, for owners that
	// revalidate stale entries.
	CheckedAt int64
	// ETag is the entity tag derived from (Size, ModTime), precomputed
	// at insertion so the per-request conditional checks never build
	// strings. Empty when the owner disables entity tags. For
	// reverse-proxy entries it is the origin's ETag verbatim.
	ETag string

	// ContentType is the Content-Type echoed to clients: derived from
	// the file name at stat time for files, the origin's value for
	// reverse-proxy entries.
	ContentType string

	// Reverse-proxy extras, zero for filesystem entries: Expires is the
	// owner-clock instant the entry turns stale (a stale hit
	// revalidates against the origin), LastModified is the origin's
	// header value (empty when it sent none).
	Expires      int64
	LastModified string
	// StaleUntil is the owner-clock instant the entry stops being
	// usable for RFC 5861 stale-if-error serving: between Expires and
	// StaleUntil an origin failure may be answered with this (stale)
	// entry. Zero means never stale-servable.
	StaleUntil int64
}

// PathCache is the pathname translation cache (§5.2). It avoids running
// the (potentially blocking) translation helpers for every request and
// is bounded by entry count, since translations are small and their
// benefit is per-request CPU and helper traffic saved.
type PathCache struct {
	l *lru[string, PathEntry]
}

// NewPathCache creates a cache holding at most capacity translations.
// A zero capacity disables the cache (every lookup misses), which is how
// the Figure 11 "no path caching" configurations run.
func NewPathCache(capacity int) *PathCache {
	return NewPathCacheEvict(capacity, nil)
}

// NewPathCacheEvict creates a cache whose onEvict observes entries
// dropped by LRU pressure (owners holding resources in File — e.g. open
// file descriptors — release them there). Entries removed by Invalidate
// or replaced by Put are NOT reported; their owner already holds them.
func NewPathCacheEvict(capacity int, onEvict func(string, PathEntry)) *PathCache {
	return &PathCache{l: newLRU[string, PathEntry](capacity, onEvict)}
}

// Get returns the translation for a requested name.
func (c *PathCache) Get(name string) (PathEntry, bool) { return c.l.get(name) }

// Peek returns the translation without promoting the entry or counting
// a hit/miss — for owners that must check whether a stale copy of an
// entry is still the cached one (e.g. before releasing the descriptor
// it carries) without distorting the LRU order or the stats.
func (c *PathCache) Peek(name string) (PathEntry, bool) { return c.l.peek(name) }

// Put records a translation.
func (c *PathCache) Put(name string, e PathEntry) { c.l.put(name, e) }

// Invalidate drops a translation (e.g. after a 404 turns out stale).
func (c *PathCache) Invalidate(name string) bool { return c.l.remove(name) }

// Len returns the number of cached translations.
func (c *PathCache) Len() int { return c.l.len() }

// Stats returns cumulative counters.
func (c *PathCache) Stats() Stats { return c.l.stats }

// Clear empties the cache (without invoking the eviction callback).
func (c *PathCache) Clear() { c.l.clear() }

// Each visits every entry (LRU order, most recent first).
func (c *PathCache) Each(fn func(name string, e PathEntry)) {
	c.l.each(fn)
}
