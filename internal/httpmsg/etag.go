package httpmsg

import (
	"fmt"
	"strings"
)

// MakeETag builds a strong entity tag from a file's size and
// modification time (Unix seconds). Two files with equal size and mtime
// are indistinguishable to the stat-based caches anyway, so the pair is
// exactly the identity the server can promise.
func MakeETag(size, modTime int64) string {
	return fmt.Sprintf("\"%x-%x\"", size, modTime)
}

// ETagMatch reports whether an If-None-Match header value matches the
// given entity tag, using the weak comparison RFC 9110 §8.8.3.2
// prescribes (a "W/" prefix on either side is ignored).
func ETagMatch(headerVal, etag string) bool {
	if strings.TrimSpace(headerVal) == "*" {
		return etag != ""
	}
	return listHasETag(headerVal, weakTrim(etag), true)
}

// MatchIfMatch reports whether an If-Match header value matches the
// given entity tag, using the strong comparison RFC 9110 §13.1.1
// prescribes: "*" matches any current entity, and a weak tag on either
// side never matches.
func MatchIfMatch(headerVal, etag string) bool {
	if strings.TrimSpace(headerVal) == "*" {
		return true
	}
	return etag != "" && !strings.HasPrefix(etag, "W/") && listHasETag(headerVal, etag, false)
}

// listHasETag reports whether the comma-separated list holds target,
// each candidate trimmed and, under the weak comparison, stripped of
// its weakness prefix. It walks the list without splitting it into a
// fresh slice: the 304-revalidation hot path must stay allocation-free.
func listHasETag(list, target string, weak bool) bool {
	for {
		cand := list
		i := strings.IndexByte(list, ',')
		if i >= 0 {
			cand, list = list[:i], list[i+1:]
		}
		if cand = strings.TrimSpace(cand); weak {
			cand = weakTrim(cand)
		}
		if cand == target {
			return true
		}
		if i < 0 {
			return false
		}
	}
}

// weakTrim strips whitespace and any weakness prefix from an etag.
func weakTrim(tag string) string {
	tag = strings.TrimSpace(tag)
	if strings.HasPrefix(tag, "W/") || strings.HasPrefix(tag, "w/") {
		tag = tag[2:]
	}
	return tag
}

// MatchIfRange evaluates an If-Range header value (RFC 7233 §3.2)
// against the resource's current strong etag and modification time.
// The value is either an entity tag — which must match strongly — or an
// HTTP date, which must equal the Last-Modified time exactly. A false
// return means the Range header is ignored and the full body served.
func MatchIfRange(val, etag string, modTime int64) bool {
	val = strings.TrimSpace(val)
	if val == "" {
		return true
	}
	if strings.HasPrefix(val, "W/") || strings.HasPrefix(val, "w/") {
		return false // weak tags never match strongly
	}
	if strings.HasPrefix(val, "\"") {
		return etag != "" && val == etag
	}
	t, err := ParseHTTPTime(val)
	if err != nil {
		return false
	}
	return t.Unix() == modTime
}
