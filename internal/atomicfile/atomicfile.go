// Package atomicfile replaces a file's contents so that a crash never leaves
// a torn file visible: checkpoint images and FLASHBLK block files are both
// written through it.
package atomicfile

import "os"

// Write replaces path with buf through a synced temp file in the same
// directory and a rename, so path always holds a complete old or new file.
// The temp file is removed on any failure.
func Write(path string, buf []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(buf)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
