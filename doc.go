// Package esse is the root of a from-scratch Go reproduction of
// "Many Task Computing for Multidisciplinary Ocean Sciences: Real-Time
// Uncertainty Prediction and Data Assimilation" (Evangelinos, Lermusiaux,
// Xu, Haley, Hill; MTAGS/SC 2009).
//
// The library implements Error Subspace Statistical Estimation (ESSE) —
// an ensemble-based uncertainty-prediction and data-assimilation method —
// together with every substrate the paper's evaluation depends on: a
// stochastic primitive-equation-style ocean model, an acoustic
// transmission-loss solver, a dense linear-algebra kernel (SVD et al.), a
// many-task workflow engine, and a discrete-event simulation of the local
// cluster, TeraGrid sites and Amazon EC2 used in the paper.
//
// See DESIGN.md for the system inventory and the per-experiment index,
// and EXPERIMENTS.md for paper-versus-measured results. cmd/repro
// regenerates every table and figure of the paper; TestGolden in
// internal/experiments pins their fixed-seed numbers bit for bit.
package esse
