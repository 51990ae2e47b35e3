package httpmsg

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// --- Request parsing ---

// parseRequest parses a private copy of raw (ParseBytes lower-cases
// field names in place) into a fresh Request.
func parseRequest(raw []byte) (*Request, error) {
	r := new(Request)
	if err := r.ParseBytes(bytes.Clone(raw)); err != nil {
		return nil, err
	}
	return r, nil
}

func TestParseSimpleGet(t *testing.T) {
	r, err := parseRequest([]byte("GET /index.html HTTP/1.0\r\nHost: example.com\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Method != "GET" || r.Path != "/index.html" || r.Proto != "HTTP/1.0" {
		t.Fatalf("parsed = %+v", r)
	}
	if r.Host() != "example.com" {
		t.Fatalf("Host = %q", r.Host())
	}
	if r.KeepAlive {
		t.Fatal("HTTP/1.0 without keep-alive header must not persist")
	}
}

func TestParseHTTP11DefaultsKeepAlive(t *testing.T) {
	r, err := parseRequest([]byte("GET / HTTP/1.1\r\nHost: h\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.KeepAlive {
		t.Fatal("HTTP/1.1 must default to keep-alive")
	}
}

func TestParseConnectionClose(t *testing.T) {
	r, err := parseRequest([]byte("GET / HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.KeepAlive {
		t.Fatal("Connection: close ignored")
	}
}

func TestParseHTTP10KeepAlive(t *testing.T) {
	r, err := parseRequest([]byte("GET / HTTP/1.0\r\nConnection: Keep-Alive\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if !r.KeepAlive {
		t.Fatal("HTTP/1.0 Connection: Keep-Alive ignored")
	}
}

func TestParseQueryString(t *testing.T) {
	r, err := parseRequest([]byte("GET /cgi-bin/search?q=flash+server HTTP/1.0\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Path != "/cgi-bin/search" || r.Query != "q=flash+server" {
		t.Fatalf("path=%q query=%q", r.Path, r.Query)
	}
}

func TestParsePercentEscapes(t *testing.T) {
	r, err := parseRequest([]byte("GET /a%20b/c%2ehtml HTTP/1.0\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Path != "/a b/c.html" {
		t.Fatalf("Path = %q", r.Path)
	}
}

func TestParseBadEscape(t *testing.T) {
	if _, err := parseRequest([]byte("GET /a%zz HTTP/1.0\r\n\r\n")); err == nil {
		t.Fatal("bad escape accepted")
	}
	if _, err := parseRequest([]byte("GET /a% HTTP/1.0\r\n\r\n")); err == nil {
		t.Fatal("truncated escape accepted")
	}
}

func TestParseIncomplete(t *testing.T) {
	if _, err := parseRequest([]byte("GET / HTTP/1.0\r\nHost: h\r\n")); err != ErrIncomplete {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
}

func TestParseMalformed(t *testing.T) {
	for _, in := range []string{
		"\r\n\r\n",
		"GET\r\n\r\n",
		"GET / HTTP/1.0 extra junk\r\n\r\n",
		"GET / HTTP/1.0\r\nNoColonHeader\r\n\r\n",
	} {
		if _, err := parseRequest([]byte(in)); err == nil {
			t.Errorf("accepted malformed request %q", in)
		}
	}
}

func TestParseUnsupportedVersion(t *testing.T) {
	if _, err := parseRequest([]byte("GET / HTTP/2.0\r\n\r\n")); err != ErrUnsupported {
		t.Fatalf("err = %v, want ErrUnsupported", err)
	}
}

func TestParseHTTP09(t *testing.T) {
	r, err := parseRequest([]byte("GET /doc.html\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Proto != "HTTP/0.9" || r.KeepAlive {
		t.Fatalf("parsed = %+v", r)
	}
}

func TestParseLFOnlyLineEndings(t *testing.T) {
	r, err := parseRequest([]byte("GET /x HTTP/1.0\nHost: h\n\n"))
	if err != nil {
		t.Fatal(err)
	}
	if r.Path != "/x" || r.Host() != "h" {
		t.Fatalf("parsed = %+v", r)
	}
}

func TestParseDuplicateHeadersJoined(t *testing.T) {
	r, err := parseRequest([]byte("GET / HTTP/1.0\r\nAccept: a\r\nAccept: b\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := r.Header("accept"); v != "a, b" {
		t.Fatalf("accept = %q", v)
	}
}

func TestParseIfModifiedSince(t *testing.T) {
	r, err := parseRequest([]byte("GET / HTTP/1.0\r\nIf-Modified-Since: Sun, 06 Nov 1994 08:49:37 GMT\r\n\r\n"))
	if err != nil {
		t.Fatal(err)
	}
	want := time.Date(1994, 11, 6, 8, 49, 37, 0, time.UTC)
	if !r.IfModifiedSince.Equal(want) {
		t.Fatalf("IMS = %v, want %v", r.IfModifiedSince, want)
	}
}

func TestTargetTooLong(t *testing.T) {
	target := "/" + strings.Repeat("a", MaxTargetLen)
	if _, err := parseRequest([]byte("GET " + target + " HTTP/1.0\r\n\r\n")); err != ErrTargetTooBig {
		t.Fatalf("err = %v, want ErrTargetTooBig", err)
	}
}

func TestHeaderEnd(t *testing.T) {
	if HeaderEnd([]byte("partial")) != -1 {
		t.Fatal("HeaderEnd found end in partial data")
	}
	buf := []byte("GET / HTTP/1.0\r\n\r\nBODY")
	if got := HeaderEnd(buf); got != 18 {
		t.Fatalf("HeaderEnd = %d, want 18", got)
	}
}

// --- CleanPath ---

func TestCleanPath(t *testing.T) {
	cases := map[string]string{
		"":                  "/",
		"/":                 "/",
		"/a/b":              "/a/b",
		"//a//b":            "/a/b",
		"/a/./b":            "/a/b",
		"/a/../b":           "/b",
		"/../../etc/passwd": "/etc/passwd",
		"/a/b/../../../..":  "/",
		"/a/":               "/a/",
		"/a/b/..":           "/a",
	}
	for in, want := range cases {
		if got := CleanPath(in); got != want {
			t.Errorf("CleanPath(%q) = %q, want %q", in, got, want)
		}
	}
}

// Property: CleanPath output always begins with "/" and never contains
// ".." segments — the traversal defense.
func TestPropertyCleanPathSafe(t *testing.T) {
	f := func(s string) bool {
		got := CleanPath(s)
		if !strings.HasPrefix(got, "/") {
			return false
		}
		for _, seg := range strings.Split(got, "/") {
			if seg == ".." {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// --- Response headers ---

func TestBuildHeaderBasic(t *testing.T) {
	h := BuildHeader(ResponseMeta{
		Status:        200,
		ContentType:   "text/html",
		ContentLength: 1234,
		KeepAlive:     true,
	}, false)
	s := string(h)
	if !strings.HasPrefix(s, "HTTP/1.1 200 OK\r\n") {
		t.Fatalf("header = %q", s)
	}
	for _, want := range []string{
		"Content-Type: text/html\r\n",
		"Content-Length: 1234\r\n",
		"Connection: keep-alive\r\n",
		"Server: " + DefaultServerName,
	} {
		if !strings.Contains(s, want) {
			t.Errorf("header missing %q", want)
		}
	}
	if !strings.HasSuffix(s, "\r\n\r\n") {
		t.Fatal("header not terminated")
	}
}

func TestBuildHeaderAlignment(t *testing.T) {
	// The §5.5 optimization: aligned headers are multiples of 32 bytes.
	for _, length := range []int64{0, 1, 10, 999, 123456, 1<<31 - 1} {
		h := BuildHeader(ResponseMeta{Status: 200, ContentType: "text/html", ContentLength: length}, true)
		if len(h)%HeaderAlign != 0 {
			t.Errorf("aligned header for length %d has size %d (mod %d = %d)",
				length, len(h), HeaderAlign, len(h)%HeaderAlign)
		}
	}
}

func TestBuildHeaderUnalignedDiffers(t *testing.T) {
	m := ResponseMeta{Status: 200, ContentType: "text/plain", ContentLength: 7}
	aligned := BuildHeader(m, true)
	raw := BuildHeader(m, false)
	if len(aligned) < len(raw) {
		t.Fatal("aligned header shorter than raw")
	}
	if len(aligned)%HeaderAlign != 0 {
		t.Fatal("aligned header not aligned")
	}
}

// Property: alignment holds for arbitrary server names and lengths.
func TestPropertyHeaderAlignment(t *testing.T) {
	f := func(nameLen uint8, length uint32, keepAlive bool) bool {
		name := strings.Repeat("x", int(nameLen%40)+1)
		h := BuildHeader(ResponseMeta{
			Status:        200,
			ContentType:   "text/html",
			ContentLength: int64(length),
			ServerName:    name,
			KeepAlive:     keepAlive,
		}, true)
		return len(h)%HeaderAlign == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestBuildHeader304OmitsLength(t *testing.T) {
	h := BuildHeader(ResponseMeta{Status: 304, ContentLength: -1}, false)
	if bytes.Contains(h, []byte("Content-Length")) {
		t.Fatal("304 header includes Content-Length")
	}
	if !bytes.Contains(h, []byte("304 Not Modified")) {
		t.Fatal("wrong status line")
	}
}

func TestHeaderSizeMatchesBuild(t *testing.T) {
	m := ResponseMeta{Status: 200, ContentType: "image/gif", ContentLength: 4242}
	if HeaderSize(m, true) != len(BuildHeader(m, true)) {
		t.Fatal("HeaderSize inconsistent with BuildHeader")
	}
}

func TestStatusText(t *testing.T) {
	if StatusText(200) != "OK" || StatusText(404) != "Not Found" {
		t.Fatal("canonical phrases wrong")
	}
	if StatusText(299) != "Unknown" {
		t.Fatal("unknown code not handled")
	}
}

func TestContentTypeFor(t *testing.T) {
	cases := map[string]string{
		"/index.html":     "text/html",
		"/pic.GIF":        "image/gif",
		"/a/b.tar":        "application/x-tar",
		"/noext":          DefaultContentType,
		"/dir.d/file":     DefaultContentType,
		"/x.unknown-ext":  DefaultContentType,
		"/deep/path.jpeg": "image/jpeg",
	}
	for in, want := range cases {
		if got := ContentTypeFor(in); got != want {
			t.Errorf("ContentTypeFor(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestErrorBody(t *testing.T) {
	b := ErrorBody(404)
	if !bytes.Contains(b, []byte("404")) || !bytes.Contains(b, []byte("Not Found")) {
		t.Fatalf("body = %q", b)
	}
}

// --- HTTP time ---

func TestHTTPTimeRoundTrip(t *testing.T) {
	orig := time.Date(1999, 6, 9, 12, 30, 45, 0, time.UTC)
	s := FormatHTTPTime(orig)
	if s != "Wed, 09 Jun 1999 12:30:45 GMT" {
		t.Fatalf("FormatHTTPTime = %q, want an IMF-fixdate", s)
	}
	got, err := ParseHTTPTime(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(orig) {
		t.Fatalf("round trip: %v != %v", got, orig)
	}
}

func TestParseHTTPTimeBad(t *testing.T) {
	if _, err := ParseHTTPTime("not a time"); err == nil {
		t.Fatal("bad time accepted")
	}
}

// --- CLF ---

func TestCLFRoundTrip(t *testing.T) {
	e := CLFEntry{
		Host:   "ece.rice.edu",
		Time:   time.Date(1999, 3, 14, 15, 9, 26, 0, time.FixedZone("CST", -6*3600)),
		Method: "GET",
		Target: "/class/elec520/index.html",
		Proto:  "HTTP/1.0",
		Status: 200,
		Bytes:  5120,
	}
	line := FormatCLF(e)
	got, err := ParseCLF(line)
	if err != nil {
		t.Fatal(err)
	}
	if got.Host != e.Host || got.Target != e.Target || got.Status != e.Status || got.Bytes != e.Bytes {
		t.Fatalf("round trip mismatch: %+v vs %+v", got, e)
	}
	if !got.Time.Equal(e.Time) {
		t.Fatalf("time mismatch: %v vs %v", got.Time, e.Time)
	}
}

func TestParseCLFDashBytes(t *testing.T) {
	line := `host - - [14/Mar/1999:15:09:26 -0600] "GET /x HTTP/1.0" 304 -`
	e, err := ParseCLF(line)
	if err != nil {
		t.Fatal(err)
	}
	if e.Bytes != -1 || e.Status != 304 {
		t.Fatalf("parsed = %+v", e)
	}
}

func TestParseCLFErrors(t *testing.T) {
	for _, line := range []string{
		"",
		"host",
		"host - - not-a-timestamp more",
		`host - - [14/Mar/1999:15:09:26 -0600] "GET /x HTTP/1.0" badstatus 5`,
		`host - - [bad time] "GET /x HTTP/1.0" 200 5`,
	} {
		if _, err := ParseCLF(line); err == nil {
			t.Errorf("accepted bad CLF line %q", line)
		}
	}
}

// Property: CLF round trip preserves all fields for valid entries.
func TestPropertyCLFRoundTrip(t *testing.T) {
	f := func(status uint16, nbytes uint32, pathSeed uint8) bool {
		e := CLFEntry{
			Host:   "client42.example.com",
			Time:   time.Date(1999, 6, int(pathSeed%27)+1, 10, 0, 0, 0, time.UTC),
			Method: "GET",
			Target: "/f" + strings.Repeat("x", int(pathSeed%20)) + ".html",
			Proto:  "HTTP/1.0",
			Status: int(status%599) + 100,
			Bytes:  int64(nbytes),
		}
		got, err := ParseCLF(FormatCLF(e))
		if err != nil {
			return false
		}
		return got.Target == e.Target && got.Status == e.Status &&
			got.Bytes == e.Bytes && got.Time.Equal(e.Time)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestWireSize(t *testing.T) {
	n := WireSize("GET", "/index.html")
	if n < 50 || n > 200 {
		t.Fatalf("WireSize = %d, implausible", n)
	}
}

func BenchmarkParseRequest(b *testing.B) {
	req := []byte("GET /class/elec520/index.html HTTP/1.1\r\nHost: ece.rice.edu\r\nUser-Agent: bench\r\nAccept: */*\r\n\r\n")
	buf := make([]byte, len(req))
	var r Request
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		copy(buf, req)
		r.Reset()
		if err := r.ParseBytes(buf); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBuildHeaderAligned(b *testing.B) {
	m := ResponseMeta{Status: 200, ContentType: "text/html", ContentLength: 10240, KeepAlive: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildHeader(m, true)
	}
}
