//go:build !linux

package flash

import (
	"net"
	"os"
	"time"
)

// sendfileSupported reports whether this build has a kernel zero-copy
// path for the sendfile transport. Without one, the transport degrades
// to the portable copy loop: the SendfileThreshold still routes large
// files around the map cache (no double-buffering), and window chunks
// still leave from their descriptor — they just cross userspace once
// on the way out.
const sendfileSupported = false

// fileSender is one connection's descriptor transport — portable copy
// build.
type fileSender struct{ nc net.Conn }

func newFileSender(nc net.Conn) *fileSender { return &fileSender{nc: nc} }

// send ships file[off, off+n) through the copy loop. The sendfile byte
// count is always zero here.
func (fs *fileSender) send(f *os.File, off, n int64, timeout time.Duration) (wrote, sent int64, err error) {
	wrote, err = copySend(fs.nc, f, off, n, timeout)
	return wrote, 0, err
}
