// Binary morphology on masks.
//
// The blending-blur mask BBM (paper sec. V-C) is exactly a disc dilation of
// the virtual-background mask by radius phi; the matting-error model also
// uses dilation/erosion to fatten or thin the estimated caller mask.
//
// The disc of radius r is the set of offsets with
// float(dx*dx + dy*dy) <= float(r*r). Up to a fixed radius cutoff (32 px,
// chosen by measurement) disc operations run an exact row stencil from the
// kernel catalog, O(r) cheap row passes per pixel; above it they threshold
// the exact Euclidean distance transform, whose cost does not grow with the
// radius. Both give the same masks; pixels outside the image count as clear
// for dilation and as set for erosion.
#pragma once

#include "imaging/image.h"

namespace bb::imaging {

// Disc operations at radii up to this run the row stencil; larger radii
// threshold the EDT.
inline constexpr double kDiscStencilMaxRadius = 32.0;

// Exact squared Euclidean distance from each pixel to the nearest SET pixel
// of `mask` (Felzenszwalb-Huttenlocher two-pass algorithm). Pixels inside
// the set have distance 0. If the mask is entirely clear, all distances are
// a large sentinel (> width*height squared).
FloatImage SquaredDistanceToSet(const Bitmap& mask);

// Disc dilation: every pixel within Euclidean distance `radius` of a set
// pixel becomes set.
Bitmap DilateDisc(const Bitmap& mask, double radius);

// Disc erosion: a pixel stays set only if every pixel within `radius` is
// set (equivalently, its distance to the complement exceeds radius).
Bitmap ErodeDisc(const Bitmap& mask, double radius);

// Morphological open (erode then dilate) and close (dilate then erode).
Bitmap OpenDisc(const Bitmap& mask, double radius);
Bitmap CloseDisc(const Bitmap& mask, double radius);

// The set of pixels within `radius` of the mask but not in the mask itself -
// the "ring" used for the blending region.
Bitmap BoundaryRing(const Bitmap& mask, double radius);

}  // namespace bb::imaging
