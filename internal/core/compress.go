package sion

import (
	"compress/zlib"
	"fmt"
	"io"
)

// NewZWriter layers transparent zlib compression over a logical task-local
// file opened for writing, implementing the paper's §6 plan of integrating
// zlib "to avoid customizations such as the one described in the context of
// Scalasca". The returned writer must be closed (before the File) to flush
// the compressed stream.
//
// The compressed stream is stored through the ordinary chunk logic, so all
// multifile semantics (alignment, multiple blocks, serial access) are
// preserved; readers use NewZReader.
func NewZWriter(f io.Writer) (io.WriteCloser, error) {
	return zlib.NewWriter(f), nil
}

// NewZReader layers zlib decompression over a logical task-local file
// opened for reading. Because File.Read reports io.EOF exactly at the end
// of the task's recorded data, the decompressor terminates cleanly at the
// chunk end — the two-line gzread customization the paper had to apply to
// Scalasca (§5.2) is unnecessary here.
func NewZReader(f io.Reader) (io.ReadCloser, error) {
	zr, err := zlib.NewReader(f)
	if err != nil {
		return nil, fmt.Errorf("sion: zlib reader: %w", err)
	}
	return zr, nil
}
