//go:build !linux

package flash

import (
	"net"
	"os"
	"time"
)

// sendfileSupported reports whether this build has a kernel zero-copy
// path for the sendfile transport. Without one, transportSend degrades
// to the portable copy loop: the SendfileThreshold still routes large
// files around the map cache (no double-buffering), they just cross
// userspace once on the way out.
const sendfileSupported = false

// transportSend ships file[off, off+n) — portable copy build. The
// sendfile byte count is always zero here.
func transportSend(nc net.Conn, f *os.File, off, n int64, timeout time.Duration) (wrote, sent int64, err error) {
	wrote, err = copySend(nc, f, off, n, timeout)
	return wrote, 0, err
}
