package cache

// HeaderEntry is a precomputed HTTP response header for one file (§5.3).
// The header is tied to the file's identity: when the mapping cache
// detects the file changed, the header is regenerated rather than
// invalidated by its own mechanism.
type HeaderEntry struct {
	// Header is the exact response header bytes, already padded for
	// byte-position alignment (§5.5).
	Header []byte
	// Size is the full file size the header was built from (also the
	// Content-Length for full responses).
	Size int64
	// ModTime is the file modification time the header was built from,
	// in Unix seconds (HTTP has second granularity).
	ModTime int64
	// Variant identifies the response window the header describes
	// (e.g. the Content-Range of a 206); empty for a full response.
	// Callers sharing one variant slot across windows must compare it.
	Variant string
}

// headerKey identifies one cached header: the translated path plus the
// variant slot. A composite struct key — rather than a concatenated
// string — keeps variant lookups (304s, ranges) allocation-free.
type headerKey struct {
	path    string
	variant string
}

// HeaderCache caches response headers by translated path plus a
// variant tag. The empty variant is the full 200 response; other slots
// (the server keeps one for its 206s and one for its 304) hold the
// other responses of the same entity, so partial, not-modified and full
// headers for one file never collide. Stale variants are
// self-invalidating: every hit is checked against the file's current
// mtime and dropped on mismatch.
type HeaderCache struct {
	l *lru[headerKey, HeaderEntry]
}

// NewHeaderCache creates a cache of at most capacity headers. Zero
// capacity disables the cache.
func NewHeaderCache(capacity int) *HeaderCache {
	return &HeaderCache{l: newLRU[headerKey, HeaderEntry](capacity, nil)}
}

// Get returns the cached full-response header if it is still valid for
// a file with the given modification time; a stale entry is dropped and
// reported as a miss (the regeneration path of §5.3).
func (c *HeaderCache) Get(path string, modTime int64) (HeaderEntry, bool) {
	return c.GetVariant(path, "", modTime)
}

// GetVariant is Get for a specific response variant (range-ness, 304).
func (c *HeaderCache) GetVariant(path, variant string, modTime int64) (HeaderEntry, bool) {
	key := headerKey{path: path, variant: variant}
	e, ok := c.l.get(key)
	if !ok {
		return HeaderEntry{}, false
	}
	if e.ModTime != modTime {
		c.l.remove(key)
		return HeaderEntry{}, false
	}
	return e, true
}

// Put records a full-response header.
func (c *HeaderCache) Put(path string, e HeaderEntry) { c.PutVariant(path, "", e) }

// PutVariant records a header for a specific response variant. The
// cache owns its keys; callers passing view strings must clone them
// first (the flash server's paths here are cache-owned already).
func (c *HeaderCache) PutVariant(path, variant string, e HeaderEntry) {
	c.l.put(headerKey{path: path, variant: variant}, e)
}

// Len returns the number of cached headers.
func (c *HeaderCache) Len() int { return c.l.len() }

// Stats returns cumulative counters.
func (c *HeaderCache) Stats() Stats { return c.l.stats }

// Clear empties the cache.
func (c *HeaderCache) Clear() { c.l.clear() }
