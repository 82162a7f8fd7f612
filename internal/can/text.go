package can

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Text form of an identifier and a frame, the candump "ID#DATA" shape every
// file and flag of the reproduction shares: capture logs, config and wire
// corpora, guided corpus files, findings triggers and fleet trigger frames.
//
//	215#205F0100000120   data frame: hex identifier, '#', two hex digits per byte
//	215#R3               remote frame: hex identifier, "#R", decimal DLC
//
// AppendFrame prints identifiers as at least three uppercase hex digits and
// payloads in uppercase; ParseFrame accepts either case and any number of
// leading zeros, so every frame it returns prints and re-parses to itself.

// ErrText reports frame or identifier text that is not in the text form.
var ErrText = errors.New("can: malformed frame text")

const hexDigits = "0123456789ABCDEF"

// ParseID parses a hex standard identifier such as "215" or "7FF".
func ParseID(s string) (ID, error) {
	v, err := strconv.ParseUint(s, 16, 16)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		return 0, fmt.Errorf("%w: identifier %q is not hex", ErrText, s)
	}
	if err != nil || v > MaxID {
		return 0, fmt.Errorf("%w: %q", ErrIDRange, s)
	}
	return ID(v), nil
}

// ParseFrame parses a frame in the text form: "ID#HEXDATA" for a data
// frame (an even number of hex digits, at most 16) or "ID#R<dlc>" for a
// remote frame. Errors name the part of s that is wrong.
func ParseFrame(s string) (Frame, error) {
	var f Frame
	idText, body, ok := strings.Cut(s, "#")
	if !ok {
		return f, fmt.Errorf("%w: %q has no '#' separator", ErrText, s)
	}
	id, err := ParseID(idText)
	if err != nil {
		return f, err
	}
	if dlcText, ok := strings.CutPrefix(body, "R"); ok {
		dlc, err := strconv.ParseUint(dlcText, 10, 8)
		if err != nil || dlc > MaxDataLen {
			return f, fmt.Errorf("%w: remote DLC %q in %q is not 0..8", ErrText, dlcText, s)
		}
		return NewRemote(id, uint8(dlc))
	}
	if len(body)%2 != 0 || len(body) > 2*MaxDataLen {
		return f, fmt.Errorf("%w: payload %q in %q is not an even number of hex digits, at most 16", ErrText, body, s)
	}
	for i := 0; i < len(body); i += 2 {
		hi, lo := unhex(body[i]), unhex(body[i+1])
		if hi < 0 || lo < 0 {
			return Frame{}, fmt.Errorf("%w: payload byte %q in %q is not hex", ErrText, body[i:i+2], s)
		}
		f.Data[i/2] = byte(hi<<4 | lo)
	}
	f.ID = id
	f.Len = uint8(len(body) / 2)
	return f, nil
}

// AppendFrame appends the text form of f to dst and returns the extended
// slice: "%03X#%X" of the identifier and the first Len payload bytes for
// a data frame, "%03X#R%d" of the identifier and DLC for a remote frame.
func AppendFrame(dst []byte, f Frame) []byte {
	if f.ID > 0xFFF {
		dst = append(dst, hexDigits[f.ID>>12])
	}
	dst = append(dst, hexDigits[f.ID>>8&0xF], hexDigits[f.ID>>4&0xF], hexDigits[f.ID&0xF], '#')
	if f.Remote {
		return strconv.AppendUint(append(dst, 'R'), uint64(f.Len), 10)
	}
	for _, b := range f.Data[:min(int(f.Len), MaxDataLen)] {
		dst = append(dst, hexDigits[b>>4], hexDigits[b&0xF])
	}
	return dst
}

func unhex(c byte) int {
	switch {
	case c >= '0' && c <= '9':
		return int(c - '0')
	case c >= 'a' && c <= 'f':
		return int(c-'a') + 10
	case c >= 'A' && c <= 'F':
		return int(c-'A') + 10
	}
	return -1
}
