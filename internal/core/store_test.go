package core

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testImage() *CheckpointImage {
	return &CheckpointImage{
		Seq: 42,
		Sections: [][]byte{
			{1, 2, 3, 4, 5},
			{},
			bytes.Repeat([]byte{0xAB}, 300),
		},
	}
}

func imagesEqual(a, b *CheckpointImage) bool {
	if a.Seq != b.Seq || len(a.Sections) != len(b.Sections) {
		return false
	}
	for i := range a.Sections {
		if !bytes.Equal(a.Sections[i], b.Sections[i]) {
			return false
		}
	}
	return true
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	img := testImage()
	got, err := DecodeCheckpointFile(EncodeCheckpointFile(img))
	if err != nil {
		t.Fatal(err)
	}
	if !imagesEqual(img, got) {
		t.Fatalf("round trip mismatch: %+v != %+v", got, img)
	}
}

func TestMemStoreRoundTrip(t *testing.T) {
	s := NewMemStore()
	if img, err := s.Load(); err != nil || img != nil {
		t.Fatalf("empty store Load = %v, %v; want nil, nil", img, err)
	}
	want := testImage()
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil || !imagesEqual(want, got) {
		t.Fatalf("Load = %+v, %v", got, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if img, _ := s.Load(); img != nil {
		t.Fatal("Close did not drop the image")
	}
}

func TestFileStoreRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.flash")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if img, err := s.Load(); err != nil || img != nil {
		t.Fatalf("missing file Load = %v, %v; want nil, nil", img, err)
	}
	want := testImage()
	if err := s.Save(want); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load()
	if err != nil || !imagesEqual(want, got) {
		t.Fatalf("Load = %+v, %v", got, err)
	}
	// Overwrite with a newer image; only the newest survives.
	want2 := &CheckpointImage{Seq: 43, Sections: [][]byte{{9, 9}}}
	if err := s.Save(want2); err != nil {
		t.Fatal(err)
	}
	got2, err := s.Load()
	if err != nil || !imagesEqual(want2, got2) {
		t.Fatalf("Load after overwrite = %+v, %v", got2, err)
	}
	// The atomic write leaves no temp file behind.
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatalf("temp file left behind: %v", err)
	}
}

func TestNewFileStoreEmptyPath(t *testing.T) {
	if _, err := NewFileStore(""); err == nil {
		t.Fatal("empty path accepted")
	}
}

// TestDecodeCheckpointRejectsDamage feeds the decoder every damage class the
// durable store must survive: each must return an error — never a panic,
// never a partial image.
func TestDecodeCheckpointRejectsDamage(t *testing.T) {
	valid := EncodeCheckpointFile(testImage())
	cases := map[string][]byte{
		"empty":             {},
		"short header":      valid[:10],
		"bad magic":         append([]byte("NOTFLASH"), valid[8:]...),
		"truncated table":   valid[:ckptHdrSize+3],
		"truncated payload": valid[:len(valid)-1],
		"trailing garbage":  append(append([]byte(nil), valid...), 0xFF),
	}
	wrongVer := append([]byte(nil), valid...)
	wrongVer[8] = 99
	cases["wrong version"] = wrongVer
	hugeSects := append([]byte(nil), valid...)
	hugeSects[18], hugeSects[19], hugeSects[20], hugeSects[21] = 0xFF, 0xFF, 0xFF, 0xFF
	cases["absurd section count"] = hugeSects
	for name, data := range cases {
		if img, err := DecodeCheckpointFile(data); err == nil {
			t.Errorf("%s: decoded without error: %+v", name, img)
		}
	}
	// Every single-bit flip anywhere in the file must either be rejected or
	// leave the section payloads untouched (the seq field carries no CRC of
	// its own, so a flip there is visible in Seq but never in state bytes).
	want := testImage()
	for i := 0; i < len(valid)*8; i++ {
		flipped := append([]byte(nil), valid...)
		flipped[i/8] ^= 1 << (i % 8)
		img, err := DecodeCheckpointFile(flipped)
		if err != nil {
			continue
		}
		if len(img.Sections) != len(want.Sections) {
			t.Fatalf("bit flip at %d changed the section count undetected", i)
		}
		for s := range img.Sections {
			if !bytes.Equal(img.Sections[s], want.Sections[s]) {
				t.Fatalf("bit flip at %d silently altered section %d", i, s)
			}
		}
	}
}

// TestFileStoreLoadRejectsCorruptFile verifies a damaged file on disk
// surfaces as a Load error, not a bad restore.
func TestFileStoreLoadRejectsCorruptFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ckpt.flash")
	s, err := NewFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save(testImage()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if img, err := s.Load(); err == nil {
		t.Fatalf("corrupt file loaded without error: %+v", img)
	}
}

// FuzzCheckpointFileDecode hammers the durable-store decoder with arbitrary
// bytes: it must never panic and never hand back an image that does not
// fully validate. Valid inputs must re-encode to an image equal to what was
// decoded (self-consistency).
func FuzzCheckpointFileDecode(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("FLASHCKP"))
	f.Add(EncodeCheckpointFile(testImage()))
	f.Add(EncodeCheckpointFile(&CheckpointImage{Seq: 0, Sections: nil}))
	trunc := EncodeCheckpointFile(testImage())
	f.Add(trunc[:len(trunc)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		img, err := DecodeCheckpointFile(data)
		if err != nil {
			if img != nil {
				t.Fatal("error with non-nil image (partial restore)")
			}
			return
		}
		// A decoded image must survive a re-encode/re-decode round trip.
		img2, err := DecodeCheckpointFile(EncodeCheckpointFile(img))
		if err != nil {
			t.Fatalf("re-decode of accepted image failed: %v", err)
		}
		if !imagesEqual(img, img2) {
			t.Fatal("accepted image not self-consistent")
		}
	})
}

// TestDecodeCheckpointRefusesVersion1 checks the version gate: an image
// written before range placement was cut on in-edges assigns masters by
// vertex count, so version 1 is refused rather than restored onto the wrong
// workers.
func TestDecodeCheckpointRefusesVersion1(t *testing.T) {
	old := EncodeCheckpointFile(testImage())
	binary.LittleEndian.PutUint16(old[8:10], 1)
	_, err := DecodeCheckpointFile(old)
	if err == nil || !strings.Contains(err.Error(), "unsupported checkpoint version 1") {
		t.Fatalf("version-1 image: err = %v, want unsupported checkpoint version 1", err)
	}
}
