// Forwarding include for bench/e2e, which still names this header; see
// the bench/e2e compatibility block at the end of ros/tag/codec.hpp.
#pragma once

#include "ros/tag/codec.hpp"
