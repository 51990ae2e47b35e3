package main

import (
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync/atomic"
)

// origin is the backend proxy_mix fronts: a net/http server inside the
// driver, so its cost is the same on every commit of flashd. Every path
// under proxyPrefix has a proxyBodyBytes body generated from the path,
// an ETag, and honours If-None-Match; paths under "n/" answer
// Cache-Control: no-cache (flashd must revalidate each hit), the rest
// max-age=3600.
type origin struct {
	seed uint64
	srv  *http.Server
	addr string
	full atomic.Int64 // 200 responses
	cond atomic.Int64 // 304 responses
}

func startOrigin(seed uint64) (*origin, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	o := &origin{seed: seed, addr: l.Addr().String()}
	o.srv = &http.Server{Handler: o}
	go o.srv.Serve(l)
	return o, nil
}

func (o *origin) stop() { o.srv.Close() }

func (o *origin) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body := make([]byte, proxyBodyBytes)
	obj := proxyObject(o.seed, r.URL.Path, body)
	etag := `"` + strconv.FormatUint(uint64(obj.crc), 16) + `"`
	h := w.Header()
	h.Set("ETag", etag)
	if strings.HasPrefix(r.URL.Path, proxyPrefix+"n/") {
		h.Set("Cache-Control", "no-cache")
	} else {
		h.Set("Cache-Control", "max-age=3600")
	}
	if r.Header.Get("If-None-Match") == etag {
		o.cond.Add(1)
		w.WriteHeader(http.StatusNotModified)
		return
	}
	o.full.Add(1)
	h.Set("Content-Type", "application/octet-stream")
	h.Set("Content-Length", strconv.Itoa(len(body)))
	w.Write(body)
}
