package flash

import (
	"io"
	"net"
	"os"
	"sync"
	"time"
)

// copyBufSize is the pread granularity of the portable copy transport.
const copyBufSize = 256 << 10

// copyBufPool recycles transfer buffers across responses — the copy
// transport otherwise allocates copyBufSize of garbage per large body.
var copyBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, copyBufSize)
		return &b
	},
}

// copySend is the portable transport: pread the byte window through
// the shared descriptor — never the fd's file offset, which concurrent
// responses on the same cached descriptor would corrupt — and write it
// out (the response header has already left with whatever was corked
// ahead of it). It backs non-Linux builds and the cases sendfile
// cannot take (non-TCP sockets, filesystems without support). The
// write deadline is renewed per operation, so WriteTimeout bounds each
// write, not the whole body.
func copySend(nc net.Conn, f *os.File, off, n int64, timeout time.Duration) (wrote int64, err error) {
	bufp := copyBufPool.Get().(*[]byte)
	defer copyBufPool.Put(bufp)
	buf := *bufp
	pos, end := off, off+n
	for pos < end {
		m := int64(len(buf))
		if m > end-pos {
			m = end - pos
		}
		got, rerr := f.ReadAt(buf[:m], pos)
		if got <= 0 {
			if rerr == nil || rerr == io.EOF {
				// EOF before the promised window was served: the file
				// shrank after its size was stat'ed.
				rerr = io.ErrUnexpectedEOF
			}
			return wrote, rerr
		}
		pos += int64(got)
		nc.SetWriteDeadline(time.Now().Add(timeout))
		w, werr := nc.Write(buf[:got])
		wrote += int64(w)
		if werr != nil {
			return wrote, werr
		}
	}
	return wrote, nil
}
