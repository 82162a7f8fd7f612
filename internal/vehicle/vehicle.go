// Package vehicle assembles the simulated target car: a powertrain CAN bus
// and a body CAN bus joined by a gateway ECU, populated with the engine
// controller, ABS/wheel-speed sensor node, transmission controller, body
// control module, climate controller, fuel sender, body computer (which
// drives the instrument cluster gauge message 0x43A), the instrument
// cluster itself with its UDS diagnostic server, and the infotainment head
// unit of the remote-unlock feature.
//
// This is the stand-in for the paper's test vehicle: it "exposes two CAN
// buses" through the OBD port (§VI), carries the periodic message schedule
// whose captured frames appear in Table II, and produces the non-linear
// per-byte-position value distribution of Fig 4.
package vehicle

import (
	"time"

	"repro/internal/bcm"
	"repro/internal/bus"
	"repro/internal/clock"
	"repro/internal/cluster"
	"repro/internal/ecu"
	"repro/internal/engine"
	"repro/internal/gateway"
	"repro/internal/infotain"
	"repro/internal/isotp"
	"repro/internal/obd"
	"repro/internal/signal"
	"repro/internal/telemetry"
	"repro/internal/uds"
)

// AppToken is the shared secret between the manufacturer's smartphone app
// and the head unit.
const AppToken = "factory-paired-app"

// OBDBus selects which of the two exposed buses an OBD tap attaches to.
type OBDBus int

const (
	// OBDPowertrain exposes the powertrain bus on the OBD connector.
	OBDPowertrain OBDBus = iota + 1
	// OBDBody exposes the body bus on the OBD connector.
	OBDBody
)

// Config tunes the assembled vehicle.
type Config struct {
	// Seed drives all deterministic pseudo-random variation in the traffic
	// sources (fuel sloshing, cabin temperature drift...).
	Seed int64
	// BCMCheck selects the body module's command-parser strictness.
	BCMCheck bcm.CheckMode
	// BCMAckUnlock enables the unlock acknowledgement broadcast.
	BCMAckUnlock bool
	// GatewayPolicy applies to both directions; zero means ForwardAll
	// (the legacy vehicle of the paper).
	GatewayPolicy gateway.Policy
}

// Vehicle is the assembled simulated car.
type Vehicle struct {
	sched *clock.Scheduler

	// Powertrain and Body are the two CAN buses exposed via OBD.
	Powertrain *bus.Bus
	Body       *bus.Bus
	// Gateway bridges the two buses.
	Gateway *gateway.Gateway

	// Engine is the engine controller (powertrain).
	Engine *engine.Engine
	// Cluster is the instrument cluster (body).
	Cluster *cluster.Cluster
	// ClusterUDS is the cluster's diagnostic server.
	ClusterUDS *uds.Server
	// BCM is the body control module (body).
	BCM *bcm.BCM
	// HeadUnit is the infotainment unit (body).
	HeadUnit *infotain.HeadUnit
	// EngineOBD answers OBD-II mode 01/03/04 requests on the powertrain
	// bus (the engine is the classic J1979 responder).
	EngineOBD *obd.Server

	transmission *ecu.ECU
	abs          *ecu.ECU
	climate      *ecu.ECU
	fuelSender   *ecu.ECU
	bodyComputer *ecu.ECU

	db  *signal.Database
	rng uint64

	// Slow-moving plant state owned by the traffic sources.
	fuelLevel  float64
	cabinTemp  float64
	transTemp  float64
	roadSpeed  float64
	motionCnt  uint8
	lastEngine map[string]float64
	driveTimer *clock.Timer
}

// New assembles a vehicle on the given scheduler and starts all periodic
// traffic.
func New(sched *clock.Scheduler, cfg Config) *Vehicle {
	v := &Vehicle{
		sched:      sched,
		Powertrain: bus.New(sched, bus.WithName("powertrain")),
		Body:       bus.New(sched, bus.WithName("body")),
		db:         signal.VehicleDB(),
		rng:        uint64(cfg.Seed)*2862933555777941757 + 3037000493,
		fuelLevel:  61.5,
		cabinTemp:  22,
		transTemp:  25,
		lastEngine: map[string]float64{},
	}

	v.Gateway = gateway.New("gateway", v.Powertrain, v.Body)
	if cfg.GatewayPolicy != 0 {
		v.Gateway.SetPolicy(gateway.AToB, cfg.GatewayPolicy)
		v.Gateway.SetPolicy(gateway.BToA, cfg.GatewayPolicy)
	}

	// --- Powertrain bus --------------------------------------------------
	engineECU := ecu.New("engine", sched, v.Powertrain.Connect("engine"))
	v.Engine = engine.New(engineECU)
	v.EngineOBD = obd.NewServer(engineECU, obd.IDResponseBase, obd.Values{
		RPM:     v.Engine.RPM,
		Coolant: v.Engine.Coolant,
		Speed:   func() float64 { return v.roadSpeed },
	})

	v.transmission = ecu.New("transmission", sched, v.Powertrain.Connect("transmission"))
	v.transmission.Periodic(50*time.Millisecond, v.sendTransmission)

	v.abs = ecu.New("abs", sched, v.Powertrain.Connect("abs"))
	v.abs.Periodic(20*time.Millisecond, v.sendWheelsAndMotion)

	// --- Body bus --------------------------------------------------------
	clusterECU := ecu.New("cluster", sched, v.Body.Connect("cluster"))
	v.Cluster = cluster.New(clusterECU)
	v.ClusterUDS = attachClusterUDS(clusterECU, v.Cluster)

	v.BCM = bcm.New(ecu.New("bcm", sched, v.Body.Connect("bcm")), bcm.Config{
		Check:     cfg.BCMCheck,
		AckUnlock: cfg.BCMAckUnlock,
	})

	v.HeadUnit = infotain.New(ecu.New("headunit", sched, v.Body.Connect("headunit")), AppToken)

	v.climate = ecu.New("climate", sched, v.Body.Connect("climate"))
	v.climate.Periodic(200*time.Millisecond, v.sendClimate)

	v.fuelSender = ecu.New("fuelsender", sched, v.Body.Connect("fuelsender"))
	v.fuelSender.Periodic(500*time.Millisecond, v.sendFuel)

	// The body computer mirrors powertrain values into the gauge message
	// the cluster needles follow (the paper's "message known to affect the
	// instrument cluster gauge needles").
	v.bodyComputer = ecu.New("bodycomputer", sched, v.Body.Connect("bodycomputer"))
	v.bodyComputer.Handle(signal.IDEngineData, func(m bus.Message) {
		if def, ok := v.db.ByID(signal.IDEngineData); ok {
			v.lastEngine = def.Decode(m.Frame)
		}
	})
	v.bodyComputer.Periodic(100*time.Millisecond, v.sendGauges)

	return v
}

// attachClusterUDS wires a UDS server (with the crash-flag DID) onto the
// cluster ECU at the standard OBD diagnostic identifiers.
func attachClusterUDS(e *ecu.ECU, c *cluster.Cluster) *uds.Server {
	var server *uds.Server
	ep := isotp.NewEndpoint(e.Scheduler(), e.Send,
		signal.IDDiagResponse, signal.IDDiagRequest,
		isotp.Config{}, func(req []byte) { server.HandleRequest(req) })
	server = uds.NewServer(e, ep, uds.ServerConfig{DIDs: c.DIDEntries()})
	e.Handle(signal.IDDiagRequest, ep.HandleFrame)
	return server
}

// Instrument attaches the whole car to a telemetry plane: both buses (with
// per-port counters and sliding-window load) and every ECU's dispatch
// accounting. Passing nil is a no-op.
func (v *Vehicle) Instrument(t *telemetry.Telemetry) {
	if t == nil {
		return
	}
	v.Powertrain.Instrument(t)
	v.Body.Instrument(t)
	for _, e := range []*ecu.ECU{
		v.Engine.ECU(), v.Cluster.ECU(), v.BCM.ECU(), v.HeadUnit.ECU(),
		v.transmission, v.abs, v.climate, v.fuelSender, v.bodyComputer,
	} {
		e.Instrument(t)
	}
}

// ECUs returns every application ECU by node name — the attachment map a
// fault-injection plan uses to resolve stall/panic targets.
func (v *Vehicle) ECUs() map[string]*ecu.ECU {
	m := map[string]*ecu.ECU{}
	for _, e := range []*ecu.ECU{
		v.Engine.ECU(), v.Cluster.ECU(), v.BCM.ECU(), v.HeadUnit.ECU(),
		v.transmission, v.abs, v.climate, v.fuelSender, v.bodyComputer,
	} {
		m[e.Name()] = e
	}
	return m
}

// AttachOBD connects a tester/fuzzer node to one of the exposed buses via
// the OBD port and returns its port.
func (v *Vehicle) AttachOBD(which OBDBus, name string) *bus.Port {
	if which == OBDPowertrain {
		return v.Powertrain.Connect(name)
	}
	return v.Body.Connect(name)
}

// TapOBD registers a passive monitor on one of the exposed buses.
func (v *Vehicle) TapOBD(which OBDBus, r bus.Receiver) {
	if which == OBDPowertrain {
		v.Powertrain.Tap(r)
		return
	}
	v.Body.Tap(r)
}

// Drive sets the accelerator position (0-100%). The road speed follows a
// crude drivetrain model: it rises toward a throttle-proportional target
// and coasts down when the throttle closes. The paper's experiments run at
// idle; Drive exists for richer traffic scenarios and tests.
func (v *Vehicle) Drive(throttlePct float64) {
	v.Engine.SetThrottle(throttlePct)
	if v.driveTimer == nil {
		v.driveTimer = v.sched.Every(100*time.Millisecond, v.updateSpeed)
	}
}

// RoadSpeed returns the current vehicle speed in km/h.
func (v *Vehicle) RoadSpeed() float64 { return v.roadSpeed }

// updateSpeed advances the drivetrain model 100 ms.
func (v *Vehicle) updateSpeed() {
	// Above ~1200 rpm the clutch is engaged; speed chases a target set by
	// engine speed, limited by a 180 km/h drag ceiling.
	target := 0.0
	if rpm := v.Engine.RPM(); rpm > 1200 {
		target = (rpm - 1200) / 6000 * 180
	}
	v.roadSpeed += (target - v.roadSpeed) * 0.05
	if v.roadSpeed < 0.1 && target == 0 {
		v.roadSpeed = 0
	}
}

// noise returns a deterministic value in [-1, 1).
func (v *Vehicle) noise() float64 {
	v.rng = v.rng*6364136223846793005 + 1442695040888963407
	return float64(int64(v.rng>>11))/float64(1<<52) - 1
}

// --- Traffic sources ---------------------------------------------------

func (v *Vehicle) sendTransmission() {
	v.transTemp += (v.Engine.Coolant() - v.transTemp) * 0.005
	gear := 0.0 // park/neutral while idling
	if v.roadSpeed > 1 {
		gear = 1 + float64(int(v.roadSpeed/20))
		if gear > 6 {
			gear = 6
		}
	}
	def, _ := v.db.ByID(signal.IDTransmission)
	f, err := def.Encode(map[string]float64{
		"GearEngaged":   gear,
		"ConverterLock": 0,
		"TransTemp":     v.transTemp,
	})
	if err == nil {
		_ = v.transmission.Send(f)
	}
}

func (v *Vehicle) sendWheelsAndMotion() {
	// Idling: wheels stationary (Table II row 04B0 is all zeros).
	def, _ := v.db.ByID(signal.IDWheelSpeeds)
	f, err := def.Encode(map[string]float64{
		"WheelFL": v.roadSpeed, "WheelFR": v.roadSpeed,
		"WheelRL": v.roadSpeed, "WheelRR": v.roadSpeed,
	})
	if err == nil {
		_ = v.abs.Send(f)
	}
	v.motionCnt++
	mdef, _ := v.db.ByID(signal.IDVehicleMotion)
	mf, err := mdef.Encode(map[string]float64{
		"RoadSpeed":     v.roadSpeed,
		"LongAccel":     0,
		"BrakePressure": 0,
		"MotionAlive":   float64(v.motionCnt),
	})
	if err == nil {
		_ = v.abs.Send(mf)
	}
}

func (v *Vehicle) sendClimate() {
	v.cabinTemp += v.noise() * 0.05
	if v.cabinTemp < 15 {
		v.cabinTemp = 15
	}
	if v.cabinTemp > 35 {
		v.cabinTemp = 35
	}
	def, _ := v.db.ByID(signal.IDClimate)
	f, err := def.Encode(map[string]float64{
		"CabinTemp":    v.cabinTemp,
		"BlowerPWM":    108, // the 0x6C of the Table II capture
		"ACCompressor": 0,
	})
	if err == nil {
		_ = v.climate.Send(f)
	}
}

func (v *Vehicle) sendFuel() {
	// Idle burn plus sender slosh.
	v.fuelLevel -= 0.0005
	if v.fuelLevel < 0 {
		v.fuelLevel = 0
	}
	level := v.fuelLevel + v.noise()*0.2
	if level < 0 {
		level = 0
	}
	def, _ := v.db.ByID(signal.IDFuel)
	f, err := def.Encode(map[string]float64{
		"FuelLevel": level,
		"FuelFlow":  0.9 + v.noise()*0.05,
	})
	if err == nil {
		_ = v.fuelSender.Send(f)
	}
}

func (v *Vehicle) sendGauges() {
	rpm := v.lastEngine["EngineRPM"]
	def, _ := v.db.ByID(signal.IDClusterGauges)
	f, err := def.Encode(map[string]float64{
		"TachoRPM":     rpm,
		"SpeedoKPH":    v.roadSpeed,
		"SpeedoMirror": v.roadSpeed,
	})
	if err == nil {
		_ = v.bodyComputer.Send(f)
	}
}
