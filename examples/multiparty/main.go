// Multiparty simulates a three-party call through a selective forwarding
// unit: one temporally layered sender, an SFU, and two receivers with
// unequal downlinks. With layer selection the SFU serves both from one
// encode — the weak receiver gets the 15 fps base layer at low latency
// instead of a queue collapse.
package main

import (
	"fmt"
	"time"

	"rtcadapt/internal/codec"
	"rtcadapt/internal/core"
	"rtcadapt/internal/metrics"
	"rtcadapt/internal/netem"
	"rtcadapt/internal/session"
	"rtcadapt/internal/sfu"
	"rtcadapt/internal/simtime"
	"rtcadapt/internal/trace"
	"rtcadapt/internal/video"
)

func main() {
	fmt.Println("three-party call: sender --2.5Mbps--> SFU --> strong (3 Mbps) + weak (1.5 Mbps)")
	fmt.Println()
	fmt.Printf("%-18s %-16s %10s %11s %10s %6s\n",
		"receiver", "layer selection", "P95 (ms)", "delivered", "SSIM", "MOS")

	for _, layerSel := range []bool{false, true} {
		sched := simtime.NewScheduler()
		uplink := netem.NewLink(sched, netem.Config{Trace: trace.Constant(2.5e6), Seed: 1})
		sender := session.New(sched, session.Config{
			Duration:    30 * time.Second,
			Seed:        1,
			Content:     video.TalkingHead,
			ForwardLink: uplink,
			InitialRate: 1e6,
			Controller:  core.NewAdaptive(core.AdaptiveConfig{}),
			Encoder:     codec.Config{TemporalLayers: 2},
		})
		node := sfu.NewNode(sched, sender, 0)
		node.LayerSelection = layerSel
		uplink.SetReceiver(node)

		receivers := []*sfu.Receiver{
			sfu.NewReceiver(sched, node, sfu.ReceiverConfig{
				Name:     "strong",
				Downlink: netem.NewLink(sched, netem.Config{Trace: trace.Constant(3e6), Seed: 2}),
			}),
			sfu.NewReceiver(sched, node, sfu.ReceiverConfig{
				Name:     "weak",
				Downlink: netem.NewLink(sched, netem.Config{Trace: trace.Constant(1.5e6), Seed: 3}),
			}),
		}
		sched.RunUntil(32 * time.Second)

		ledger := sender.CaptureLedger()
		for _, r := range receivers {
			rep := metrics.SummarizeAll(r.Records(nil, ledger), 33*time.Millisecond)
			mode := "off"
			if layerSel {
				mode = "on"
			}
			fmt.Printf("%-18s %-16s %10.1f %10.1f%% %10.4f %6.2f\n",
				r.Name(), mode,
				rep.P95NetDelay.Seconds()*1000,
				float64(rep.DeliveredFrames)/float64(rep.Frames)*100,
				rep.MeanSSIM, metrics.MOS(rep))
		}
	}

	fmt.Println("\nwith selection on, the weak receiver trades half its frame rate for an")
	fmt.Println("order-of-magnitude latency cut; the strong receiver keeps the full stream.")
}
