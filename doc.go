// Package repro is a from-scratch Go reproduction of "Automatic
// Incrementalization of Vertex-Centric Programs" (Zakian, Capelli, Hu):
// the ΔV language, the incrementalizing compiler, a Pregel-style BSP
// engine, handwritten Pregel+-style baselines, and a benchmark harness
// that regenerates every table and figure of the paper's evaluation.
//
// See README.md for a tour, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-vs-measured comparison. cmd/dvbench
// regenerates Table 1, Table 2, Figure 4, Figure 5 and the ablations.
package repro
