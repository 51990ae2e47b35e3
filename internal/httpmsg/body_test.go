package httpmsg

import (
	"bytes"
	"strings"
	"testing"
)

func parseReq(t *testing.T, raw string) *Request {
	t.Helper()
	r, err := parseRequest([]byte(raw))
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	return r
}

func TestBodyFraming(t *testing.T) {
	cases := []struct {
		name string
		raw  string
		kind BodyKind
		n    int64
		err  error
	}{
		{"none", "GET / HTTP/1.1\r\nHost: t\r\n\r\n", BodyNone, 0, nil},
		{"length", "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: 42\r\n\r\n", BodyLength, 42, nil},
		{"zero-length", "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: 0\r\n\r\n", BodyNone, 0, nil},
		{"chunked", "POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\n\r\n", BodyChunked, -1, nil},
		{"chunked-case", "POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: Chunked\r\n\r\n", BodyChunked, -1, nil},
		{"gzip-te", "POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: gzip\r\n\r\n", BodyNone, 0, ErrBadTransferEncoding},
		{"te-and-cl", "POST / HTTP/1.1\r\nHost: t\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n", BodyNone, 0, ErrAmbiguousFraming},
		{"bad-cl", "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: banana\r\n\r\n", BodyNone, 0, ErrMalformed},
		{"negative-cl", "POST / HTTP/1.1\r\nHost: t\r\nContent-Length: -4\r\n\r\n", BodyNone, 0, ErrMalformed},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			kind, n, err := parseReq(t, tc.raw).BodyFraming()
			if err != tc.err {
				t.Fatalf("err = %v, want %v", err, tc.err)
			}
			if err != nil {
				return
			}
			if kind != tc.kind || (kind == BodyLength && n != tc.n) {
				t.Fatalf("kind=%v n=%d, want %v/%d", kind, n, tc.kind, tc.n)
			}
		})
	}
}

func TestExpectsContinue(t *testing.T) {
	if !parseReq(t, "POST / HTTP/1.1\r\nHost: t\r\nExpect: 100-continue\r\n\r\n").ExpectsContinue() {
		t.Fatal("1.1 Expect: 100-continue not recognized")
	}
	if !parseReq(t, "POST / HTTP/1.1\r\nHost: t\r\nExpect: 100-Continue\r\n\r\n").ExpectsContinue() {
		t.Fatal("expectation token must be case-insensitive")
	}
	if parseReq(t, "POST / HTTP/1.0\r\nExpect: 100-continue\r\n\r\n").ExpectsContinue() {
		t.Fatal("1.0 requests cannot expect a 100")
	}
	r := parseReq(t, "POST / HTTP/1.1\r\nHost: t\r\nExpect: meaning-of-life\r\n\r\n")
	if r.ExpectsContinue() || !r.HasExpectation() {
		t.Fatal("unknown expectation must be visible for the 417 path")
	}
}

// decodeAll drives a ChunkedDecoder over src with the given read
// granularity, returning the decoded body, bytes consumed, and error.
func decodeAll(src []byte, step int) (body []byte, consumed int, err error) {
	var d ChunkedDecoder
	dst := make([]byte, 64)
	for consumed < len(src) && !d.Done() {
		end := consumed + step
		if end > len(src) {
			end = len(src)
		}
		nsrc, ndst, _, derr := d.Next(src[consumed:end], dst)
		body = append(body, dst[:ndst]...)
		consumed += nsrc
		if derr != nil {
			return body, consumed, derr
		}
		if nsrc == 0 && ndst == 0 && !d.Done() && end == len(src) {
			break // starved: incomplete input
		}
	}
	return body, consumed, nil
}

func TestChunkedDecoderRoundTrip(t *testing.T) {
	payload := []byte(strings.Repeat("the quick brown fox ", 37))
	var enc []byte
	for i := 0; i < len(payload); i += 100 {
		end := i + 100
		if end > len(payload) {
			end = len(payload)
		}
		enc = AppendChunk(enc, payload[i:end])
	}
	enc = append(enc, FinalChunk...)
	trailing := append(append([]byte{}, enc...), []byte("GET / HTTP/1.1\r\n")...)

	for _, step := range []int{1, 2, 3, 7, 64, len(trailing)} {
		body, consumed, err := decodeAll(trailing, step)
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if !bytes.Equal(body, payload) {
			t.Fatalf("step %d: body mismatch (%d vs %d bytes)", step, len(body), len(payload))
		}
		if consumed != len(enc) {
			t.Fatalf("step %d: consumed %d, want exactly %d (must not eat the next request)",
				step, consumed, len(enc))
		}
	}
}

func TestChunkedDecoderLongTrailerLineAccepted(t *testing.T) {
	// A single trailer line may use the whole trailer budget — only
	// size lines get the tight cap.
	enc := []byte("5\r\nhello\r\n0\r\nX-Signature: " + strings.Repeat("s", 300) + "\r\n\r\nNEXT")
	body, consumed, err := decodeAll(enc, 7)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "hello" || string(enc[consumed:]) != "NEXT" {
		t.Fatalf("body=%q leftover=%q", body, enc[consumed:])
	}
}

func TestChunkedDecoderTrailersIgnored(t *testing.T) {
	enc := []byte("5\r\nhello\r\n0\r\nX-Checksum: abc\r\nX-Other: def\r\n\r\nNEXT")
	body, consumed, err := decodeAll(enc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "hello" {
		t.Fatalf("body = %q", body)
	}
	if string(enc[consumed:]) != "NEXT" {
		t.Fatalf("leftover = %q, want NEXT", enc[consumed:])
	}
}

func TestChunkedDecoderExtensionsIgnored(t *testing.T) {
	body, _, err := decodeAll([]byte("5;name=value\r\nhello\r\n0\r\n\r\n"), 64)
	if err != nil || string(body) != "hello" {
		t.Fatalf("body=%q err=%v", body, err)
	}
}

func TestChunkedDecoderLFTolerant(t *testing.T) {
	body, _, err := decodeAll([]byte("5\nhello\n0\n\n"), 64)
	if err != nil || string(body) != "hello" {
		t.Fatalf("body=%q err=%v", body, err)
	}
}

func TestChunkedDecoderMalformed(t *testing.T) {
	cases := map[string]string{
		"bad-size":        "zz\r\nhello\r\n0\r\n\r\n",
		"empty-size":      "\r\nhello\r\n0\r\n\r\n",
		"missing-crlf":    "5\r\nhelloX\r\n0\r\n\r\n",
		"huge-size-line":  strings.Repeat("1", 400) + "\r\n",
		"negative-ish":    "-5\r\nhello\r\n0\r\n\r\n",
		"overflow-size":   "ffffffffffffffffff\r\nx\r\n0\r\n\r\n",
		"endless-trailer": "0\r\n" + strings.Repeat("X: "+strings.Repeat("y", 200)+"\r\n", 64),
	}
	for name, raw := range cases {
		t.Run(name, func(t *testing.T) {
			if _, _, err := decodeAll([]byte(raw), 3); err == nil {
				t.Fatalf("decoder accepted %q", raw[:min(len(raw), 40)])
			}
		})
	}
}
