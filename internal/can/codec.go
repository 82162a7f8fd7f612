package can

import "fmt"

// Wire codec: the physical bit sequence of a frame
// (AppendEncodeBits/DecodeBits), which round-trips through CRC computation
// and bit stuffing. The simulated bus does not ship bits for performance,
// but tests use this to prove the frame model is wire-faithful and the
// fuzzer's bit-level mode manipulates real stuffed sequences.

// AppendEncodeBits appends the stuffed physical bit sequence of f (header,
// data and CRC, stuffed, without the fixed-form trailer) to dst and returns
// the extended slice. The output equals Stuff(RawBits(f)), for callers that
// re-encode frames per tick, such as the bit-level fuzz mode. The raw
// sequence is built in a fixed stack buffer, so with a pre-sized dst the
// call performs no allocation.
func AppendEncodeBits(dst []byte, f Frame) []byte {
	var bits [maxRawFrameBits]byte
	n := rawFrameBits(&bits, f)
	return AppendStuff(dst, bits[:n])
}

// DecodeBits reconstructs a frame from a stuffed bit sequence produced by
// AppendEncodeBits, verifying the CRC-15.
func DecodeBits(stuffed []byte) (Frame, error) {
	var f Frame
	raw, err := Unstuff(stuffed)
	if err != nil {
		return f, err
	}
	// Minimum raw frame: 19 header bits + 15 CRC bits.
	if len(raw) < 19+15 {
		return f, ErrTruncated
	}
	if raw[0] != 0 {
		return f, fmt.Errorf("can: bad SOF bit")
	}
	var id uint16
	for _, b := range raw[1:12] {
		id = id<<1 | uint16(b&1)
	}
	f.ID = ID(id)
	f.Remote = raw[12] == 1
	if raw[13] != 0 {
		return f, fmt.Errorf("can: IDE bit set (extended frames unsupported)")
	}
	var dlc uint8
	for _, b := range raw[15:19] {
		dlc = dlc<<1 | b&1
	}
	if dlc > MaxDataLen {
		return f, fmt.Errorf("%w: dlc %d", ErrDataLen, dlc)
	}
	f.Len = dlc
	dataEnd := 19
	if !f.Remote {
		dataEnd += int(dlc) * 8
		if len(raw) != dataEnd+15 {
			return f, ErrTruncated
		}
		for i := 0; i < int(dlc); i++ {
			var by byte
			for _, b := range raw[19+i*8 : 19+(i+1)*8] {
				by = by<<1 | b&1
			}
			f.Data[i] = by
		}
	} else if len(raw) != dataEnd+15 {
		return f, ErrTruncated
	}
	var crc uint16
	for _, b := range raw[dataEnd : dataEnd+15] {
		crc = crc<<1 | uint16(b&1)
	}
	if want := CRC15(raw[:dataEnd]); crc != want {
		return f, fmt.Errorf("%w: got %#04x want %#04x", ErrCRC, crc, want)
	}
	return f, nil
}
