// Package cluster models the instrument cluster of the target vehicle: the
// component the paper fuzzed on the bench and damaged (§VI, Fig 9).
//
// Behaviour reproduced from the paper's account:
//
//   - Fuzzing "immediately resulted in Malfunction Indicator Lights (MIL)
//     illumination, warning sounds and erratic gauge needles": the cluster
//     lights MILs and chimes when decoded values are implausible or when
//     expected periodic messages disappear, and its needles follow whatever
//     the bus says.
//   - "a digital display began to display the word crash at a regular
//     rate... Cycling the power to the cluster removes any MILs that became
//     illuminated. Unfortunately the crash message would not clear": a
//     latent firmware defect in the display-control handler latches a
//     corrupted state flag into emulated EEPROM. MILs are volatile; the
//     EEPROM flag is not, so only a (secured) service-tool write clears it.
//   - The paper's Fig 8 shows the simulator happily displaying a negative
//     engine RPM. The cluster's display path decodes the 16-bit tachometer
//     raw value as SIGNED while the transmitting ECU encodes it unsigned —
//     a real-world class of DBC mismatch. Normal traffic never exceeds
//     8000 rpm (raw 32000, below the sign bit), so the bug is invisible
//     until fuzz data arrives.
package cluster

import (
	"time"

	"repro/internal/bus"
	"repro/internal/can"
	"repro/internal/ecu"
	"repro/internal/oracle"
	"repro/internal/signal"
	"repro/internal/uds"
)

// IDDisplayControl is the identifier of the (undocumented) display-control
// message whose handler carries the latent defect. It is not part of the
// public signal database: the paper stresses that "additional features...
// may be present. An undocumented application programming interface (API),
// as well as an untested code path, could be exploitable" (§III-3).
const IDDisplayControl can.ID = 0x6B0

// crashNVKey is the EEPROM location the defective handler corrupts.
const crashNVKey = "display.crashflag"

// DIDCrashFlag is the UDS data identifier a service tool uses to read and
// (after security access) clear the crash flag.
const DIDCrashFlag uds.DID = 0xD0C1

// messageTimeout is the supervision window for periodic inputs; missing
// EngineData for longer lights the communication MIL.
const messageTimeout = 500 * time.Millisecond

// MIL lamp names used by the cluster.
const (
	MILEngineComm  = "ENGINE-COMM"
	MILImplausible = "IMPLAUSIBLE-DATA"
	MILGeneric     = "CHECK-VEHICLE"
)

// Cluster is the instrument cluster application.
type Cluster struct {
	ecu *ecu.ECU
	db  *signal.Database

	// Displayed values: whatever the last decode said, no validation.
	rpm     float64 // signed-decoded tachometer value (Fig 8 defect)
	speed   float64
	fuel    float64
	coolant float64

	lastEngineData time.Duration
	crashShows     uint64 // times the CRASH text rendered (paper: regular rate)
	sup            bool   // supervision enabled after first engine frame
}

// New builds the cluster application on an ECU runtime.
func New(e *ecu.ECU) *Cluster {
	c := &Cluster{ecu: e, db: signal.VehicleDB()}
	e.Handle(signal.IDEngineData, c.onEngineData)
	e.Handle(signal.IDClusterGauges, c.onGauges)
	e.Handle(signal.IDFuel, c.onFuel)
	e.Handle(IDDisplayControl, c.onDisplayControl)
	e.Periodic(100*time.Millisecond, c.refresh)
	e.OnPowerOn(func() {
		// Volatile display state resets; the EEPROM crash flag does not.
		c.rpm, c.speed, c.fuel, c.coolant = 0, 0, 0, 0
		c.sup = false
	})
	return c
}

// ECU exposes the underlying runtime (MILs, chimes, power control).
func (c *Cluster) ECU() *ecu.ECU { return c.ecu }

// DisplayedRPM returns the tachometer needle value. It can be negative
// under fuzzing (Fig 8) because of the signed/unsigned decode mismatch.
func (c *Cluster) DisplayedRPM() float64 { return c.rpm }

// DisplayedSpeed returns the speedometer needle value in km/h.
func (c *Cluster) DisplayedSpeed() float64 { return c.speed }

// DisplayedFuel returns the fuel gauge value in percent.
func (c *Cluster) DisplayedFuel() float64 { return c.fuel }

// DisplayedCoolant returns the coolant gauge value in degC.
func (c *Cluster) DisplayedCoolant() float64 { return c.coolant }

// DisplayText returns what the digital display currently shows — the
// rendered output a camera pointed at the bench would capture (the paper's
// §VII suggestion to "use video processing software, for example OpenCV,
// to monitor the cyber-physical actions"). Normal operation renders the
// odometer line; a latched crash renders the factory burn-in string.
func (c *Cluster) DisplayText() string {
	if !c.ecu.Powered() {
		return ""
	}
	if c.Crashed() {
		return "CRASH"
	}
	return "ODO 042193 km"
}

// Crashed reports whether the persistent crash flag is latched in EEPROM.
func (c *Cluster) Crashed() bool {
	v, ok := c.ecu.NVRead(crashNVKey)
	return ok && len(v) > 0 && v[0] != 0
}

// CrashOracle returns the physical oracle for the latched crash display
// (the paper's Fig 9 damage), sampling Crashed every 10 ms.
func (c *Cluster) CrashOracle() *oracle.Probe {
	return oracle.Physical("cluster-crash", 10*time.Millisecond, c.Crashed, false, "persistent CRASH display latched")
}

// CrashDisplays returns how many times the display has rendered the CRASH
// text ("at a regular rate" once latched).
func (c *Cluster) CrashDisplays() uint64 { return c.crashShows }

// ClearCrashFlag is the service-tool EEPROM fix (exposed via the secured
// UDS DID; see DIDEntries).
func (c *Cluster) ClearCrashFlag() { c.ecu.NVDelete(crashNVKey) }

// DIDEntries returns the UDS data identifiers the cluster exposes,
// including the secured write that clears the crash flag.
func (c *Cluster) DIDEntries() map[uds.DID]uds.DIDEntry {
	return map[uds.DID]uds.DIDEntry{
		DIDCrashFlag: {
			Read: func() []byte {
				if c.Crashed() {
					return []byte{1}
				}
				return []byte{0}
			},
			Write: func(v []byte) error {
				if len(v) == 1 && v[0] == 0 {
					c.ClearCrashFlag()
				}
				return nil
			},
			Secured: true,
		},
	}
}

// signedTachoDecode decodes the 16-bit raw tachometer field as signed —
// the display path's latent mismatch with the unsigned encoder.
func signedTachoDecode(f can.Frame, startByte int) float64 {
	if int(f.Len) < startByte+2 {
		return 0
	}
	raw := int16(uint16(f.Data[startByte]) | uint16(f.Data[startByte+1])<<8)
	return float64(raw) * 0.25
}

func (c *Cluster) onEngineData(m bus.Message) {
	c.lastEngineData = c.ecu.Now()
	c.sup = true
	c.ecu.SetMIL(MILEngineComm, false)

	def, _ := c.db.ByID(signal.IDEngineData)
	vals := def.Decode(m.Frame)
	c.rpm = signedTachoDecode(m.Frame, 0)
	c.coolant = vals["CoolantTemp"]

	c.checkPlausibility(def, vals)
}

func (c *Cluster) onGauges(m bus.Message) {
	// Direct needle-control message ("the message known to affect the
	// instrument cluster gauge needles", §VI).
	def, _ := c.db.ByID(signal.IDClusterGauges)
	vals := def.Decode(m.Frame)
	c.rpm = signedTachoDecode(m.Frame, 0)
	c.speed = vals["SpeedoKPH"]
	c.checkPlausibility(def, vals)
}

func (c *Cluster) onFuel(m bus.Message) {
	def, _ := c.db.ByID(signal.IDFuel)
	vals := def.Decode(m.Frame)
	c.fuel = vals["FuelLevel"]
	c.checkPlausibility(def, vals)
}

// checkPlausibility lights the implausible-data MIL and chimes when any
// decoded signal leaves its documented range — the immediate MIL + warning
// sound reaction the paper reports.
func (c *Cluster) checkPlausibility(def *signal.MessageDef, vals map[string]float64) {
	for _, s := range def.Signals {
		if !s.Plausible(vals[s.Name]) {
			c.ecu.SetMIL(MILImplausible, true)
			c.ecu.SetMIL(MILGeneric, true)
			c.ecu.Chime()
			return
		}
	}
	// The signed display path can go negative even when every DB-decoded
	// signal looks fine; treat a negative needle as implausible too.
	if c.rpm < 0 {
		c.ecu.SetMIL(MILImplausible, true)
		c.ecu.Chime()
	}
}

// onDisplayControl is the defective undocumented handler. Intent: a 4-byte
// message {page, brightness, textIdx, checksum} selects a stock display
// text. Defect: when the frame is short AND the page byte has its top bit
// set, the handler computes a text index from uninitialised stack bytes and
// stores the resulting out-of-range value into EEPROM, latching index 0 —
// the factory "CRASH" burn-in test string.
func (c *Cluster) onDisplayControl(m bus.Message) {
	f := m.Frame
	if f.Len == 4 && f.Data[3] == f.Data[0]^f.Data[1]^f.Data[2] {
		// Well-formed request: display a stock text, nothing persisted.
		return
	}
	// Malformed traffic reaches the defect only on this branch.
	if f.Len >= 1 && f.Len < 4 && f.Data[0]&0x80 != 0 {
		c.ecu.NVWrite(crashNVKey, []byte{1})
		c.ecu.LogFault("B1D00", "display text index out of range; EEPROM state corrupted")
	}
}

// refresh runs the 100 ms display task: renders the CRASH text when the
// latched flag is set and re-checks message supervision.
func (c *Cluster) refresh() {
	if c.Crashed() {
		c.crashShows++
	}
	if c.sup && c.ecu.Now()-c.lastEngineData > messageTimeout {
		c.ecu.SetMIL(MILEngineComm, true)
		c.ecu.Chime()
	}
}
