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

// fileSender is one connection's zero-copy transport. Everything a
// transfer needs — the socket's RawConn, the callback RawConn.Write
// runs, and the callback's arguments and results — lives here, made
// once per connection, so a transfer on a warm connection allocates
// nothing.
type fileSender struct {
	nc   net.Conn
	raw  syscall.RawConn       // nil: not a kernel TCP socket, so copy
	step func(fd uintptr) bool // fs.sendStep, bound once

	infd    int
	pos     int64 // the next file offset to send
	remain  int64
	sent    int64
	timeout time.Duration
	err     error
}

func newFileSender(nc net.Conn) *fileSender {
	fs := &fileSender{nc: nc}
	if tc, ok := nc.(*net.TCPConn); ok {
		if raw, err := tc.SyscallConn(); err == nil {
			fs.raw = raw
			fs.step = fs.sendStep
		}
	}
	return fs
}

// send ships file[off, off+n) with a sendfile(2) loop — file bytes go
// socket-ward inside the kernel, never through userspace (the response
// header has already left with the caller's writev). The
// explicit-offset form of the syscall is used so the shared cached
// descriptor's file position is never touched (concurrent responses
// stream from the same fd). The write deadline is renewed whenever a
// call makes progress, so WriteTimeout bounds each kernel transfer
// rather than the whole body; EAGAIN parks the caller on the netpoller
// via RawConn.Write. Returns total bytes written and how many of them
// the kernel moved with sendfile.
func (fs *fileSender) send(f *os.File, off, n int64, timeout time.Duration) (wrote, sent int64, err error) {
	if fs.raw == nil {
		// Not a kernel TCP socket (a wrapped or test transport): copy.
		wrote, err = copySend(fs.nc, f, off, n, timeout)
		return wrote, 0, err
	}
	fs.infd, fs.pos, fs.remain, fs.sent, fs.timeout, fs.err = int(f.Fd()), off, n, 0, timeout, nil
	fs.nc.SetWriteDeadline(time.Now().Add(timeout))
	werr := fs.raw.Write(fs.step)
	sent, sferr := fs.sent, fs.err
	fs.err = nil
	wrote = sent
	if werr != nil {
		return wrote, sent, werr
	}
	if (sferr == syscall.EINVAL || sferr == syscall.ENOSYS) && sent == 0 {
		// The filesystem (or socket state) refused sendfile outright;
		// serve the window through the portable copy loop instead.
		w, cerr := copySend(fs.nc, f, fs.pos, fs.remain, timeout)
		return wrote + w, 0, cerr
	}
	return wrote, sent, sferr
}

// sendStep is the RawConn.Write callback: sendfile until the window is
// sent (true), the socket would block (false: park on the netpoller
// and call again), or an error ends the transfer (true, with fs.err).
func (fs *fileSender) sendStep(outfd uintptr) bool {
	for fs.remain > 0 {
		w, e := syscall.Sendfile(int(outfd), fs.infd, &fs.pos, int(min(fs.remain, sendfileMaxPerCall)))
		if w > 0 {
			fs.sent += int64(w)
			fs.remain -= int64(w)
			// Progress: the per-operation deadline starts over.
			fs.nc.SetWriteDeadline(time.Now().Add(fs.timeout))
		}
		switch e {
		case nil:
			if w == 0 {
				// EOF before the promised window was served: the file
				// shrank after its size was stat'ed.
				fs.err = io.ErrUnexpectedEOF
				return true
			}
		case syscall.EINTR:
			continue
		case syscall.EAGAIN:
			return false // park on the netpoller until writable
		default:
			fs.err = e
			return true
		}
	}
	return true
}
