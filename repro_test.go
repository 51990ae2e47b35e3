package repro

import (
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestFacadeEndToEnd exercises the re-exported public API exactly as
// README's quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, "index.html"),
		[]byte("<html>facade</html>"), 0o644); err != nil {
		t.Fatal(err)
	}

	srv, err := New(Config{DocRoot: root})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	srv.HandleFunc("GET", "/api/", func(w ResponseWriter, r *Request) {
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, "dynamic")
	})

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(l)
	base := "http://" + l.Addr().String()

	resp, err := http.Get(base + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || !strings.Contains(string(body), "facade") {
		t.Fatalf("static: %d %q", resp.StatusCode, body)
	}

	resp, err = http.Get(base + "/api/x")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if string(body) != "dynamic" {
		t.Fatalf("dynamic: %q", body)
	}

	// The loop counts a response once its write has completed, so a
	// client already holding the bytes can still read the old count.
	st := srv.Stats()
	for deadline := time.Now().Add(5 * time.Second); st.Responses < 2 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		st = srv.Stats()
	}
	if st.Responses < 2 || st.DynamicCalls != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFacadeConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
}
