// Connected-component labeling on binary masks.
//
// Used by the generic-object detectors to isolate candidate blobs in the
// reconstructed background, and by the matting model to drop tiny spurious
// mask islands.
#pragma once

#include <vector>

#include "imaging/geometry.h"
#include "imaging/image.h"

namespace bb::imaging {

struct Component {
  int label = 0;        // 1-based label as stored in the label image
  Rect bbox;            // tight bounding box
  std::size_t area = 0; // number of pixels
  PointF centroid;      // mean pixel position
};

struct Labeling {
  ImageT<int> labels;               // 0 = background, 1..N = components
  std::vector<Component> components;
};

enum class Connectivity { kFour, kEight };

// Labels all connected components of set pixels (4-connectivity by
// default; 8-connectivity also links diagonal neighbours).
Labeling LabelComponents(const Bitmap& mask,
                         Connectivity connectivity = Connectivity::kFour);

// Removes components with fewer than `min_area` pixels.
Bitmap RemoveSmallComponents(const Bitmap& mask, std::size_t min_area);

// Keeps only the single largest component, the first in raster order on
// ties. The result is empty when the mask is, or when that component has
// fewer than `min_area` pixels - the same mask RemoveSmallComponents then
// LargestComponent gives, from one labelling.
Bitmap LargestComponent(const Bitmap& mask, std::size_t min_area = 0);

}  // namespace bb::imaging
