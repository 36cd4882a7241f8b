package wire

import (
	"bytes"
	"encoding/gob"
	"io"
	"strings"
	"testing"
)

func TestHeaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, MagicEnsemble); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("payload")
	v, body, err := ReadHeader(&buf, MagicEnsemble)
	if err != nil {
		t.Fatal(err)
	}
	if v != Version1 {
		t.Fatalf("version %d, want %d (WriteHeader frames at the compatible base version)", v, Version1)
	}
	rest, _ := io.ReadAll(body)
	if string(rest) != "payload" {
		t.Fatalf("payload %q after header", rest)
	}

	buf.Reset()
	if err := WriteHeaderVersion(&buf, MagicEnsemble, VersionSeeded); err != nil {
		t.Fatal(err)
	}
	if v, _, err = ReadHeader(&buf, MagicEnsemble); err != nil || v != VersionSeeded {
		t.Fatalf("seeded-version round trip: v=%d err=%v", v, err)
	}
	if err := WriteHeaderVersion(&buf, MagicEnsemble, Version+1); err == nil {
		t.Fatal("WriteHeaderVersion accepted an unsupported future version")
	}
	if err := WriteHeaderVersion(&buf, MagicEnsemble, 0); err == nil {
		t.Fatal("WriteHeaderVersion accepted the reserved legacy version 0")
	}
}

func TestHeaderTypeMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, MagicOnlineHD); err != nil {
		t.Fatal(err)
	}
	_, _, err := ReadHeader(&buf, MagicEnsemble)
	if err == nil {
		t.Fatal("expected type-mismatch error")
	}
	if !strings.Contains(err.Error(), "OnlineHD") {
		t.Fatalf("error %q does not name the found type", err)
	}
}

func TestHeaderFutureVersionRejected(t *testing.T) {
	blob := append([]byte(MagicBinary), Version+1)
	_, _, err := ReadHeader(bytes.NewReader(blob), MagicBinary)
	if err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("expected version error, got %v", err)
	}
}

// TestHeaderLegacyPassthrough: headerless blobs (pre-framing gob streams,
// arbitrary bytes, a truncated header) no longer pass through to a legacy
// decoder; ReadHeader rejects them naming the missing header.
func TestHeaderLegacyPassthrough(t *testing.T) {
	for _, legacy := range []string{"", "ab", "BHDE", "\x40gob-ish stream bytes"} {
		_, _, err := ReadHeader(strings.NewReader(legacy), MagicEnsemble)
		if err == nil || !strings.Contains(err.Error(), "missing BHDE header") {
			t.Fatalf("headerless %q: err %v, want a missing-header rejection", legacy, err)
		}
	}
}

func TestWriteHeaderRejectsBadMagic(t *testing.T) {
	if err := WriteHeader(io.Discard, "NOPE"); err == nil {
		t.Fatal("expected invalid-magic error")
	}
}

// TestCheckPayload pins the gob framing check: a real gob stream passes
// from a *bytes.Reader (checked in place, position kept) and from any
// other reader, and every stream whose message count overruns the
// payload, or is not a gob count at all, is rejected before a decoder
// could size a buffer from it.
func TestCheckPayload(t *testing.T) {
	var buf bytes.Buffer
	type rec struct {
		Name   string
		Packed []byte
	}
	if err := gob.NewEncoder(&buf).Encode(rec{"w1", make([]byte, 300)}); err != nil {
		t.Fatal(err)
	}
	stream := buf.Bytes()
	framed := append([]byte("BHDT\x03"), stream...)
	br := bytes.NewReader(framed)
	br.Seek(5, io.SeekStart)
	got, err := CheckPayload(br)
	if err != nil || got != br || got.Len() != len(stream) {
		t.Fatalf("in-place check: %v (reader kept %v, %d bytes left)", err, got == br, got.Len())
	}
	var back rec
	if err := gob.NewDecoder(got).Decode(&back); err != nil || back.Name != "w1" || len(back.Packed) != 300 {
		t.Fatalf("decode after check: %v", err)
	}
	if _, err := CheckPayload(io.MultiReader(bytes.NewReader(stream))); err != nil {
		t.Fatalf("generic reader: %v", err)
	}
	for _, bad := range []string{
		"\xfc0000",                     // a 4-byte count of 0x30303030
		"\x05abc",                      // a one-byte count past the end
		"\x80abc",                      // count width 128
		string(stream[:len(stream)-1]), // the last message cut short
	} {
		if _, err := CheckPayload(bytes.NewReader([]byte(bad))); err == nil {
			t.Errorf("payload %q accepted", bad)
		}
	}
}
