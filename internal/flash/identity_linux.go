//go:build linux

package flash

import (
	"os"
	"syscall"
)

// fileIdentity returns the size and modification time (unix seconds)
// of the open file f: one fstat(2) into a stack buffer, where
// os.File.Stat builds a FileInfo on the heap for every call.
func fileIdentity(f *os.File) (size, modTime int64, err error) {
	var st syscall.Stat_t
	if err := syscall.Fstat(int(f.Fd()), &st); err != nil {
		return 0, 0, err
	}
	return int64(st.Size), int64(st.Mtim.Sec), nil
}
