package flash

import (
	"fmt"
	"html"
	"os"
	"sort"
	"strings"
	"time"

	"repro/internal/httpmsg"
)

// listingJob generates a directory listing on a helper goroutine (it
// reads the directory — blocking work, like any other file operation).
func listingJob(fsPath string) helperResult {
	entries, err := os.ReadDir(fsPath)
	if err != nil {
		status := 404
		if os.IsPermission(err) {
			status = 403
		}
		return helperResult{err: err, status: status}
	}
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].IsDir() != entries[j].IsDir() {
			return entries[i].IsDir()
		}
		return entries[i].Name() < entries[j].Name()
	})

	var b strings.Builder
	name := html.EscapeString(fsPath)
	fmt.Fprintf(&b, "<html><head><title>Index of %s</title></head><body>\n", name)
	fmt.Fprintf(&b, "<h1>Index of %s</h1>\n<pre>\n", name)
	b.WriteString("<a href=\"../\">../</a>\n")
	for _, e := range entries {
		n := e.Name()
		href := html.EscapeString(n)
		if e.IsDir() {
			href += "/"
		}
		info, ierr := e.Info()
		size := "-"
		mtime := ""
		if ierr == nil {
			if !e.IsDir() {
				size = fmt.Sprintf("%d", info.Size())
			}
			mtime = info.ModTime().UTC().Format(time.RFC3339)
		}
		fmt.Fprintf(&b, "<a href=%q>%s</a>  %s  %s\n",
			href, html.EscapeString(n), mtime, size)
	}
	b.WriteString("</pre></body></html>\n")
	return helperResult{
		fsPath: fsPath,
		data:   []byte(b.String()),
	}
}

// serveListing sends a generated listing body. Runs on the event loop.
func (s *shard) serveListing(c *conn, body []byte) {
	req := c.ls.req
	c.ls.status = 200
	hdr := httpmsg.BuildHeader(httpmsg.ResponseMeta{
		Status:        200,
		Proto:         req.Proto,
		ContentType:   "text/html",
		ContentLength: int64(len(body)),
		Date:          s.cfg.Clock(),
		KeepAlive:     req.KeepAlive,
		ServerName:    s.cfg.ServerName,
	}, true)
	hdr = headerFor(req, hdr)
	s.respondFixed(c, append(append([]byte{}, hdr...), body...))
}
