package signal

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestRawInsertExtractRoundTrip(t *testing.T) {
	s := Signal{Name: "x", StartBit: 5, Bits: 13}
	data := make([]byte, 4)
	if err := s.RawInsert(data, 0x1ABC); err != nil {
		t.Fatalf("RawInsert: %v", err)
	}
	if got := s.RawExtract(data); got != 0x1ABC {
		t.Fatalf("RawExtract = %#x, want 0x1ABC", got)
	}
}

func TestRawInsertDoesNotClobberNeighbours(t *testing.T) {
	data := []byte{0xFF, 0xFF}
	s := Signal{Name: "mid", StartBit: 4, Bits: 8}
	if err := s.RawInsert(data, 0); err != nil {
		t.Fatal(err)
	}
	if data[0] != 0x0F || data[1] != 0xF0 {
		t.Fatalf("neighbour bits clobbered: % X", data)
	}
}

func TestDecodeUnsignedScaleOffset(t *testing.T) {
	s := Signal{Name: "temp", StartBit: 0, Bits: 8, Scale: 1, Offset: -40}
	data := []byte{130}
	if got := s.Decode(data); got != 90 {
		t.Fatalf("Decode = %v, want 90", got)
	}
}

func TestDecodeSigned(t *testing.T) {
	s := Signal{Name: "accel", StartBit: 0, Bits: 8, Scale: 0.5, Signed: true}
	data := []byte{0xFF} // raw -1
	if got := s.Decode(data); got != -0.5 {
		t.Fatalf("Decode = %v, want -0.5", got)
	}
}

func TestEncodeDecodeRoundTripPhysical(t *testing.T) {
	s := Signal{Name: "rpm", StartBit: 0, Bits: 16, Scale: 0.25}
	data := make([]byte, 8)
	if err := s.Encode(data, 856.25); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	if got := s.Decode(data); got != 856.25 {
		t.Fatalf("Decode = %v, want 856.25", got)
	}
}

func TestEncodeRangeError(t *testing.T) {
	s := Signal{Name: "b", StartBit: 0, Bits: 8, Scale: 1}
	data := make([]byte, 1)
	if err := s.Encode(data, 300); !errors.Is(err, ErrRange) {
		t.Fatalf("err = %v, want ErrRange", err)
	}
	if err := s.Encode(data, -1); !errors.Is(err, ErrRange) {
		t.Fatalf("err = %v, want ErrRange", err)
	}
}

func TestEncodeSignedRange(t *testing.T) {
	s := Signal{Name: "s", StartBit: 0, Bits: 8, Scale: 1, Signed: true}
	data := make([]byte, 1)
	if err := s.Encode(data, -128); err != nil {
		t.Fatalf("Encode(-128): %v", err)
	}
	if got := s.Decode(data); got != -128 {
		t.Fatalf("Decode = %v, want -128", got)
	}
	if err := s.Encode(data, -129); !errors.Is(err, ErrRange) {
		t.Fatalf("err = %v, want ErrRange", err)
	}
	if err := s.Encode(data, 128); !errors.Is(err, ErrRange) {
		t.Fatalf("err = %v, want ErrRange", err)
	}
}

func TestEncodeGeometryError(t *testing.T) {
	s := Signal{Name: "wide", StartBit: 60, Bits: 8, Scale: 1}
	data := make([]byte, 8)
	if err := s.Encode(data, 1); !errors.Is(err, ErrGeometry) {
		t.Fatalf("err = %v, want ErrGeometry", err)
	}
}

func TestRawExtractShortFrameReadsZero(t *testing.T) {
	s := Signal{Name: "x", StartBit: 16, Bits: 16, Scale: 1}
	// Only two bytes present; signal bytes missing read as zero.
	if got := s.RawExtract([]byte{0xAA, 0xBB}); got != 0 {
		t.Fatalf("RawExtract = %#x, want 0", got)
	}
}

func TestPlausible(t *testing.T) {
	s := Signal{Name: "rpm", Min: 0, Max: 8000}
	if !s.Plausible(3000) || s.Plausible(-5) || s.Plausible(9000) {
		t.Fatal("Plausible range check wrong")
	}
	unranged := Signal{Name: "free"}
	if !unranged.Plausible(1e9) {
		t.Fatal("signal without range should always be plausible")
	}
}

func TestMessageEncodeDecode(t *testing.T) {
	db := VehicleDB()
	def, ok := db.ByName("EngineData")
	if !ok {
		t.Fatal("EngineData missing")
	}
	f, err := def.Encode(map[string]float64{
		"EngineRPM":   856,
		"ThrottlePos": 12,
		"CoolantTemp": 90,
	})
	if err != nil {
		t.Fatalf("Encode: %v", err)
	}
	vals := def.Decode(f)
	if vals["EngineRPM"] != 856 {
		t.Fatalf("EngineRPM = %v", vals["EngineRPM"])
	}
	if vals["CoolantTemp"] != 90 {
		t.Fatalf("CoolantTemp = %v", vals["CoolantTemp"])
	}
}

func TestMessageTemplateApplied(t *testing.T) {
	db := VehicleDB()
	def, _ := db.ByName("ClusterGauges")
	f, err := def.Encode(map[string]float64{"TachoRPM": 1000})
	if err != nil {
		t.Fatal(err)
	}
	if f.Data[6] != 0xFF || f.Data[7] != 0xFF {
		t.Fatalf("template pad bytes missing: % X", f.Data)
	}
}

func TestBodyCommandMatchesPaperBytes(t *testing.T) {
	// Fig 13: unlock message id 533 dec = 0x215, bytes 32 95 1 0 0 1 32.
	db := VehicleDB()
	def, _ := db.ByName("BodyCommand")
	f, err := def.Encode(map[string]float64{"Command": CmdUnlock})
	if err != nil {
		t.Fatal(err)
	}
	if f.ID != 0x215 {
		t.Fatalf("ID = %v, want 0x215 (533 decimal)", f.ID)
	}
	want := []byte{32, 95, 1, 0, 0, 1, 32}
	for i, b := range want {
		if f.Data[i] != b {
			t.Fatalf("byte %d = %d, want %d (% X)", i, f.Data[i], b, f.Data[:7])
		}
	}
}

func TestDatabaseLookups(t *testing.T) {
	db := VehicleDB()
	if _, ok := db.ByID(IDEngineData); !ok {
		t.Fatal("ByID(IDEngineData) missing")
	}
	if _, ok := db.ByID(0x7AA); ok {
		t.Fatal("unexpected message for unknown id")
	}
	if _, ok := db.ByName("nope"); ok {
		t.Fatal("unexpected message for unknown name")
	}
	if n := len(db.byID); n < 8 {
		t.Fatalf("only %d messages in vehicle DB", n)
	}
}

func TestNewDatabaseRejectsDuplicateID(t *testing.T) {
	_, err := NewDatabase(
		MessageDef{ID: 1, Name: "a", Len: 8},
		MessageDef{ID: 1, Name: "b", Len: 8},
	)
	if err == nil {
		t.Fatal("duplicate ID accepted")
	}
}

func TestNewDatabaseRejectsDuplicateName(t *testing.T) {
	_, err := NewDatabase(
		MessageDef{ID: 1, Name: "a", Len: 8},
		MessageDef{ID: 2, Name: "a", Len: 8},
	)
	if err == nil {
		t.Fatal("duplicate name accepted")
	}
}

func TestNewDatabaseRejectsBadGeometry(t *testing.T) {
	_, err := NewDatabase(MessageDef{
		ID: 1, Name: "a", Len: 2,
		Signals: []Signal{{Name: "x", StartBit: 10, Bits: 8}},
	})
	if !errors.Is(err, ErrGeometry) {
		t.Fatalf("err = %v, want ErrGeometry", err)
	}
}

func TestNewDatabaseRejectsDuplicateSignal(t *testing.T) {
	_, err := NewDatabase(MessageDef{
		ID: 1, Name: "a", Len: 8,
		Signals: []Signal{
			{Name: "x", StartBit: 0, Bits: 8},
			{Name: "x", StartBit: 8, Bits: 8},
		},
	})
	if err == nil {
		t.Fatal("duplicate signal accepted")
	}
}

func TestNewDatabaseRejectsLongTemplate(t *testing.T) {
	_, err := NewDatabase(MessageDef{ID: 1, Name: "a", Len: 2, Template: []byte{1, 2, 3}})
	if err == nil {
		t.Fatal("oversize template accepted")
	}
}

func TestVehicleDBValidates(t *testing.T) {
	// MustNewDatabase panics on invalid definitions; constructing is the test.
	db := VehicleDB()
	for _, m := range db.byID {
		if err := m.Validate(); err != nil {
			t.Fatalf("message %s: %v", m.Name, err)
		}
	}
}

func TestPropertyRawRoundTrip(t *testing.T) {
	prop := func(start, width uint8, value uint64) bool {
		bits := 1 + int(width)%16
		s := Signal{
			Name:     "p",
			StartBit: int(start) % (64 - bits),
			Bits:     bits,
		}
		data := make([]byte, 8)
		raw := value & maskBits(s.Bits)
		if err := s.RawInsert(data, raw); err != nil {
			return false
		}
		return s.RawExtract(data) == raw
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyEncodeDecodeWithinQuantum(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := Signal{Name: "q", StartBit: 3, Bits: 12, Scale: 0.1, Offset: -50}
	data := make([]byte, 8)
	for i := 0; i < 1000; i++ {
		v := rng.Float64()*350 - 50 // representable span: -50 .. 359.5
		if err := s.Encode(data, v); err != nil {
			t.Fatalf("Encode(%v): %v", v, err)
		}
		got := s.Decode(data)
		if math.Abs(got-v) > s.Scale/2+1e-9 {
			t.Fatalf("Decode(%v) = %v, quantisation error too large", v, got)
		}
	}
}

func TestCommandAuthCodeProperties(t *testing.T) {
	base := []byte{0x20, 0x5F, 0x01, 0x00, 0x00, 0x01, 0x00}
	mac := CommandAuthCode(base)
	// Deterministic.
	if CommandAuthCode(base) != mac {
		t.Fatal("MAC not deterministic")
	}
	// Sensitive to every covered byte.
	for i := 0; i < 6; i++ {
		mod := append([]byte(nil), base...)
		mod[i] ^= 0x01
		if CommandAuthCode(mod) == mac {
			t.Fatalf("MAC insensitive to byte %d", i)
		}
	}
	// Not sensitive to the MAC byte itself.
	mod := append([]byte(nil), base...)
	mod[6] = 0xFF
	if CommandAuthCode(mod) != mac {
		t.Fatal("MAC covers its own carrier byte")
	}
}

func TestAuthenticateCommand(t *testing.T) {
	payload := []byte{0x20, 0x5F, 0x01, 0x00, 0x00, 0x01, 0x00}
	AuthenticateCommand(payload)
	if payload[6] != CommandAuthCode(payload) {
		t.Fatal("AuthenticateCommand wrote wrong MAC")
	}
	short := []byte{1, 2}
	AuthenticateCommand(short) // must not panic or write
	if short[0] != 1 || short[1] != 2 {
		t.Fatal("short payload modified")
	}
}

func TestCommandAuthCodeSpread(t *testing.T) {
	// The truncated MAC should spread over the byte range (rough check).
	seen := map[byte]bool{}
	payload := make([]byte, 7)
	for i := 0; i < 512; i++ {
		payload[0] = byte(i)
		payload[3] = byte(i >> 4)
		seen[CommandAuthCode(payload)] = true
	}
	if len(seen) < 128 {
		t.Fatalf("MAC covers only %d of 256 values over 512 inputs", len(seen))
	}
}
