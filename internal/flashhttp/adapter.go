// Package flashhttp mounts standard net/http handlers on a flash
// server: Adapter bridges http.Handler onto flash.Handler, so the
// entire Go ecosystem of middleware, routers, and file servers becomes
// a workload source for the AMPED core. The bridge is intentionally
// thin — the handler still runs on its own goroutine (the paper's
// §5.6 CGI process), its reads stream from the request bodyReader, and
// its writes go to the socket one pipe buffer at a time.
package flashhttp

import (
	"io"
	"net/http"
	"net/url"

	"repro/internal/flash"
)

// Adapter wraps an unmodified net/http.Handler as a flash.Handler.
//
//	srv.Handle("", "/static/", flashhttp.Adapter(http.FileServer(http.Dir(dir))))
//
// The handler sees a faithfully reconstructed *http.Request (method,
// URL, headers, streaming Body, ContentLength, Host, RemoteAddr) and
// an http.ResponseWriter that supports Flush. Hijack and server-push
// are not supported. Flash folds repeated request headers into one
// comma-joined value, which is the RFC 7230 list form stdlib handlers
// already cope with.
func Adapter(h http.Handler) flash.Handler {
	return flash.HandlerFunc(func(w flash.ResponseWriter, r *flash.Request) {
		u, err := url.ParseRequestURI(r.Target)
		if err != nil {
			// The flash parser accepted it, so this is a target shape
			// url can't express (e.g. HTTP/0.9 oddities): serve the
			// cleaned path.
			u = &url.URL{Path: r.Path, RawQuery: r.Query}
		}
		hr := &http.Request{
			Method:        r.Method,
			URL:           u,
			Proto:         r.Proto,
			ProtoMajor:    r.Major,
			ProtoMinor:    r.Minor,
			Header:        make(http.Header, len(r.Headers)),
			Body:          io.NopCloser(r.Body),
			ContentLength: r.ContentLength,
			Host:          r.Host(),
			RemoteAddr:    r.RemoteAddr,
			RequestURI:    r.Target,
		}
		for k, v := range r.Headers {
			hr.Header.Set(k, v)
		}
		bw := &bridgeWriter{w: w, hdr: make(http.Header)}
		h.ServeHTTP(bw, hr)
		if !bw.wroteHeader {
			// net/http sends an implicit 200 — with the accumulated
			// headers — when a handler returns without writing; the
			// flash side would otherwise only see an empty 200.
			bw.WriteHeader(http.StatusOK)
		}
	})
}

// bridgeWriter adapts flash.ResponseWriter to http.ResponseWriter.
type bridgeWriter struct {
	w           flash.ResponseWriter
	hdr         http.Header
	wroteHeader bool
}

// Header implements http.ResponseWriter.
func (b *bridgeWriter) Header() http.Header { return b.hdr }

// WriteHeader implements http.ResponseWriter: the accumulated header
// map is copied into the flash response at freeze time. Interim (1xx)
// statuses pass straight through without freezing, mirroring
// net/http's 100/103 handling.
func (b *bridgeWriter) WriteHeader(status int) {
	if b.wroteHeader {
		return
	}
	fh := b.w.Header()
	for k, vs := range b.hdr {
		for _, v := range vs {
			fh.Add(k, v)
		}
	}
	b.w.WriteHeader(status)
	if status >= 100 && status < 200 {
		// The flash writer emitted the interim response using the
		// current header snapshot; clear the copies so the final
		// header doesn't double them, and stay unfrozen.
		for k := range fh {
			fh.Del(k)
		}
		return
	}
	b.wroteHeader = true
}

// Write implements http.ResponseWriter.
func (b *bridgeWriter) Write(p []byte) (int, error) {
	if !b.wroteHeader {
		b.WriteHeader(http.StatusOK)
	}
	return b.w.Write(p)
}

// Flush implements http.Flusher.
func (b *bridgeWriter) Flush() {
	if !b.wroteHeader {
		b.WriteHeader(http.StatusOK)
	}
	b.w.Flush()
}
