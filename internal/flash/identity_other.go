//go:build !linux

package flash

import "os"

// fileIdentity returns the size and modification time (unix seconds)
// of the open file f.
func fileIdentity(f *os.File) (size, modTime int64, err error) {
	st, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	return st.Size(), st.ModTime().Unix(), nil
}
