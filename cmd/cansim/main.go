// Command cansim runs the simulated target vehicle and prints either a
// live traffic log or sampled instrument readings — the stand-in for
// watching the Vector vehicle simulator of the paper's Figs 6-8.
//
// Usage:
//
//	cansim [-dur 10s] [-seed 1] [-bus body|powertrain] [-mode traffic|signals]
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"time"

	"repro/internal/bus"
	"repro/internal/capture"
	"repro/internal/clock"
	"repro/internal/telemetry"
	"repro/internal/vehicle"
)

// logger is the shared structured stderr logger of the tool; run replaces
// it once the -log-level/-log-format flags are parsed.
var logger = telemetry.NewCLILogger(os.Stderr, "cansim", slog.LevelInfo)

func main() {
	if err := run(os.Args[1:]); err != nil {
		logger.Error("run failed", "err", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("cansim", flag.ContinueOnError)
	dur := fs.Duration("dur", 10*time.Second, "virtual duration to simulate")
	seed := fs.Int64("seed", 1, "deterministic simulation seed")
	busName := fs.String("bus", "body", "bus to observe: body or powertrain")
	mode := fs.String("mode", "signals", "output: traffic (frame log) or signals (gauge samples)")
	throttle := fs.Float64("throttle", 0, "drive with this accelerator position (0-100%)")
	metricsAddr := fs.String("metrics", "", "serve /metrics, /healthz and /trace.json on this address")
	metricsHold := fs.Duration("metrics-hold", 0, "keep the metrics endpoint up this long (wall time) after the simulation ends")
	logFlags := telemetry.RegisterLogFlags(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	l, err := logFlags.Logger(os.Stderr, "cansim")
	if err != nil {
		return err
	}
	logger = l

	which := vehicle.OBDBody
	switch *busName {
	case "body":
	case "powertrain":
		which = vehicle.OBDPowertrain
	default:
		return fmt.Errorf("unknown bus %q", *busName)
	}

	sched := clock.New()
	v := vehicle.New(sched, vehicle.Config{Seed: *seed})
	var tel *telemetry.Telemetry
	if *metricsAddr != "" {
		tel = telemetry.New(0)
		v.Instrument(tel)
		srv, bound, err := telemetry.Serve(*metricsAddr, tel)
		if err != nil {
			return fmt.Errorf("metrics endpoint: %w", err)
		}
		defer telemetry.Shutdown(srv, time.Second)
		logger.Info("metrics endpoint up", "addr", bound,
			"routes", "/metrics /metrics.json /trace.json /healthz")
	}
	if *throttle > 0 {
		v.Drive(*throttle)
	}
	if err := simulate(os.Stdout, sched, v, tel, *mode, which, *dur); err != nil {
		return err
	}

	st := v.Body.Stats()
	logger.Info("simulation finished",
		"bodyFrames", st.FramesDelivered,
		"bodyLoad", fmt.Sprintf("%.1f%%", v.Body.Load()*100),
		"powertrainLoad", fmt.Sprintf("%.1f%%", v.Powertrain.Load()*100))
	if *metricsAddr != "" && *metricsHold > 0 {
		// Virtual time outruns wall time by orders of magnitude, so without
		// a hold the endpoint would vanish before anyone could scrape it.
		// SIGINT ends the hold early; the deferred Shutdown then drains
		// in-flight scrapes instead of cutting them off.
		ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt)
		defer cancel()
		logger.Info("holding metrics endpoint", "for", *metricsHold)
		telemetry.Hold(ctx, *metricsHold)
	}
	return nil
}

// step is the virtual time between signal samples and between
// publications of a -metrics plane: the run writes the plane buffered, so
// a live scrape sees the simulation as of the last step boundary.
const step = 500 * time.Millisecond

// simulate runs the vehicle to dur, printing the traffic log or the
// signal samples to out. With a telemetry plane the run is the plane's
// only writer: the plane is buffered for the run, published at every
// step boundary and flushed at the end (see Telemetry.RunBuffered), so
// the endpoint reads it while the simulation goroutine writes.
func simulate(out io.Writer, sched *clock.Scheduler, v *vehicle.Vehicle, tel *telemetry.Telemetry,
	mode string, which vehicle.OBDBus, dur time.Duration) error {
	switch mode {
	case "traffic":
		v.TapOBD(which, func(m bus.Message) {
			fmt.Fprintln(out, capture.Record{Time: m.Time, Frame: m.Frame, Origin: m.Origin})
		})
		tel.RunBuffered(sched.Now(), dur, step, sched.RunUntil)
		return nil
	case "signals":
		fmt.Fprintf(out, "%10s %12s %12s %10s %12s\n", "t", "rpm", "speed", "fuel%", "coolantC")
		// One sample per step boundary; a -dur that is no whole number
		// of steps runs on to the next boundary.
		end := sched.Now()
		for end < dur {
			end += step
		}
		tel.RunBuffered(sched.Now(), end, step, func(at time.Duration) {
			sched.RunUntil(at)
			fmt.Fprintf(out, "%10v %12.1f %12.1f %10.1f %12.1f\n",
				at.Round(time.Millisecond),
				v.Cluster.DisplayedRPM(), v.Cluster.DisplayedSpeed(),
				v.Cluster.DisplayedFuel(), v.Cluster.DisplayedCoolant())
		})
		return nil
	default:
		return fmt.Errorf("unknown mode %q", mode)
	}
}
