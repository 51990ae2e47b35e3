//go:build linux

package flash

import (
	"io"
	"net"
	"os"
	"syscall"
	"time"
)

// sendfileSupported reports whether this build has a kernel zero-copy
// path for the sendfile transport.
const sendfileSupported = true

// sendfileMaxPerCall bounds one sendfile(2) invocation so deadline
// renewal stays responsive (the kernel caps a call near 2 GiB anyway).
const sendfileMaxPerCall = 4 << 20

// transportSend ships file[off, off+n) with a sendfile(2) loop — file
// bytes go socket-ward inside the kernel, never through userspace (the
// response header has already left with the caller's writev). The
// explicit-offset form of the syscall is used so the shared cached
// descriptor's file position is never touched (concurrent responses
// stream from the same fd). The write deadline is renewed whenever a
// call makes progress, so WriteTimeout bounds each kernel transfer
// rather than the whole body; EAGAIN parks the caller on the netpoller
// via RawConn.Write. Returns total bytes written and how many of them
// the kernel moved with sendfile.
func transportSend(nc net.Conn, f *os.File, off, n int64, timeout time.Duration) (wrote, sent int64, err error) {
	tc, ok := nc.(*net.TCPConn)
	if !ok {
		// Not a kernel TCP socket (a wrapped or test transport): copy.
		wrote, err = copySend(nc, f, off, n, timeout)
		return wrote, 0, err
	}
	raw, rerr := tc.SyscallConn()
	if rerr != nil {
		wrote, err = copySend(nc, f, off, n, timeout)
		return wrote, 0, err
	}
	infd := int(f.Fd())
	pos, remain := off, n
	var sferr error
	nc.SetWriteDeadline(time.Now().Add(timeout))
	werr := raw.Write(func(outfd uintptr) bool {
		for remain > 0 {
			batch := remain
			if batch > sendfileMaxPerCall {
				batch = sendfileMaxPerCall
			}
			w, e := syscall.Sendfile(int(outfd), infd, &pos, int(batch))
			if w > 0 {
				sent += int64(w)
				remain -= int64(w)
				// Progress: the per-operation deadline starts over.
				nc.SetWriteDeadline(time.Now().Add(timeout))
			}
			switch e {
			case nil:
				if w == 0 {
					// EOF before the promised window was served: the
					// file shrank after its size was stat'ed.
					sferr = io.ErrUnexpectedEOF
					return true
				}
			case syscall.EINTR:
				continue
			case syscall.EAGAIN:
				return false // park on the netpoller until writable
			default:
				sferr = e
				return true
			}
		}
		return true
	})
	wrote = sent
	if werr != nil {
		return wrote, sent, werr
	}
	if (sferr == syscall.EINVAL || sferr == syscall.ENOSYS) && sent == 0 {
		// The filesystem (or socket state) refused sendfile outright;
		// serve the window through the portable copy loop instead.
		w, cerr := copySend(nc, f, pos, remain, timeout)
		return wrote + w, 0, cerr
	}
	return wrote, sent, sferr
}
