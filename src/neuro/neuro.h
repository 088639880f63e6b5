/**
 * @file
 * Umbrella header: the full public API of the neurocmp library.
 * Downstream users can include this single header; individual module
 * headers remain available for finer-grained dependencies.
 */

#pragma once

/** Library version. */
#define NEURO_VERSION_MAJOR 1
#define NEURO_VERSION_MINOR 0
#define NEURO_VERSION_PATCH 0

// Common substrate.
#include "neuro/common/ascii_art.h"
#include "neuro/common/config.h"
#include "neuro/common/csv.h"
#include "neuro/common/fixed_point.h"
#include "neuro/common/logging.h"
#include "neuro/common/matrix.h"
#include "neuro/common/pgm.h"
#include "neuro/common/profile.h"
#include "neuro/common/rng.h"
#include "neuro/common/serialize.h"
#include "neuro/common/stats.h"
#include "neuro/common/trace.h"
#include "neuro/common/table.h"

// Workloads.
#include "neuro/datasets/dataset.h"
#include "neuro/datasets/glyphs.h"
#include "neuro/datasets/idx_loader.h"
#include "neuro/datasets/shapes.h"
#include "neuro/datasets/spoken_digits.h"
#include "neuro/datasets/synth_digits.h"

// Machine-learning side.
#include "neuro/mlp/activation.h"
#include "neuro/mlp/backprop.h"
#include "neuro/mlp/mlp.h"
#include "neuro/mlp/quantized.h"

// Neuroscience side.
#include "neuro/snn/analysis.h"
#include "neuro/snn/coding.h"
#include "neuro/snn/homeostasis.h"
#include "neuro/snn/labeling.h"
#include "neuro/snn/lif.h"
#include "neuro/snn/network.h"
#include "neuro/snn/serialize.h"
#include "neuro/snn/snn_bp.h"
#include "neuro/snn/snn_wot.h"
#include "neuro/snn/stdp.h"
#include "neuro/snn/trainer.h"

// Hardware models.
#include "neuro/hw/design.h"
#include "neuro/hw/expanded.h"
#include "neuro/hw/folded.h"
#include "neuro/hw/operators.h"
#include "neuro/hw/scaling.h"
#include "neuro/hw/sram.h"
#include "neuro/hw/stdp_hw.h"
#include "neuro/hw/tech.h"
#include "neuro/hw/truenorth.h"

// Cycle-level simulation.
#include "neuro/cycle/folded_mlp_sim.h"
#include "neuro/cycle/folded_snn_sim.h"
#include "neuro/cycle/pipeline.h"
#include "neuro/cycle/rtl_mlp.h"
#include "neuro/cycle/rtl_snn.h"

// GPU baseline.
#include "neuro/gpu/gpu_model.h"

// Comparison framework.
#include "neuro/core/compare.h"
#include "neuro/core/experiment.h"
#include "neuro/core/explorer.h"
#include "neuro/core/faults.h"
#include "neuro/core/metrics.h"
#include "neuro/core/reports.h"

