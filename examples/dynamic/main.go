// Dynamic: serve CGI-style dynamic content (§5.6) through the Handler
// v2 API. Each handler runs on its own goroutine — the stand-in for
// Flash's persistent CGI processes — so a slow handler never stalls
// static serving, and with v2 a handler is a full peer of the server:
// it reads the request body, sets arbitrary response headers, and
// streams its output to the socket one pipe buffer at a time.
//
// The walkthrough mounts three handlers:
//
//	native       repro.HandlerFunc       POST /echo (reads the body)
//	native       repro.HandlerFunc       GET /cgi-bin/slow (blocks 500ms)
//	net/http     flashhttp.Adapter       GET /std/... (http.FileServer)
package main

import (
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro"
	"repro/internal/flashhttp"
)

func main() {
	root, err := os.MkdirTemp("", "flash-dynamic")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(root)
	os.WriteFile(filepath.Join(root, "index.html"),
		[]byte("<html>static content</html>"), 0o644)
	os.WriteFile(filepath.Join(root, "ecosystem.txt"),
		[]byte("served by net/http.FileServer on a flash core\n"), 0o644)

	srv, err := repro.New(repro.Config{DocRoot: root})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// A POST handler that reads the request body and sets its own
	// response headers.
	srv.HandleFunc("POST", "/echo", func(w repro.ResponseWriter, r *repro.Request) {
		body, err := io.ReadAll(r.Body)
		if err != nil {
			w.WriteHeader(400)
			return
		}
		w.Header().Set("Content-Type", "text/plain")
		w.Header().Set("X-Handler", "flash-v2")
		fmt.Fprintf(w, "you posted %d bytes: %q\n", len(body), body)
	})

	// Deliberately slow, to show the §5.6 isolation: the handler blocks
	// its own goroutine, and static requests keep flowing while it
	// sleeps.
	srv.HandleFunc("GET", "/cgi-bin/slow", func(w repro.ResponseWriter, r *repro.Request) {
		time.Sleep(500 * time.Millisecond)
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "finally done\n")
	})

	// The Go ecosystem: an unmodified net/http handler on the flash core.
	srv.Handle("", "/std/", flashhttp.Adapter(
		http.StripPrefix("/std/", http.FileServer(http.Dir(root)))))

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	go srv.Serve(l)
	base := "http://" + l.Addr().String()

	// Kick off the slow request...
	slowDone := make(chan string, 1)
	go func() {
		resp, err := http.Get(base + "/cgi-bin/slow")
		if err != nil {
			slowDone <- "error: " + err.Error()
			return
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		slowDone <- strings.TrimSpace(string(body))
	}()

	// ...and measure static service while it runs.
	start := time.Now()
	served := 0
	for time.Since(start) < 400*time.Millisecond {
		resp, err := http.Get(base + "/")
		if err != nil {
			log.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		served++
	}
	fmt.Printf("served %d static requests while /cgi-bin/slow was blocked\n", served)
	fmt.Printf("slow handler said: %s\n", <-slowDone)

	// POST a body to the echo handler.
	resp, err := http.Post(base+"/echo", "text/plain", strings.NewReader("hello, handler v2"))
	if err != nil {
		log.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("echo (%s): %s", resp.Header.Get("X-Handler"), body)

	// And fetch through the mounted net/http file server.
	resp, err = http.Get(base + "/std/ecosystem.txt")
	if err != nil {
		log.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	fmt.Printf("net/http adapter: %s", body)
	fmt.Printf("dynamic calls: %d\n", srv.Stats().DynamicCalls)
}
