#include "layout/writers.hpp"

#include <array>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "tech/layers.hpp"

namespace lo::layout {

namespace {

struct LayerStyle {
  const char* fill;
  double opacity;
};

LayerStyle styleOf(tech::Layer layer) {
  switch (layer) {
    case tech::Layer::kNWell: return {"#d9c79a", 0.35};
    case tech::Layer::kActive: return {"#2e8b57", 0.55};
    case tech::Layer::kPoly: return {"#c03030", 0.65};
    case tech::Layer::kNPlus: return {"#7ec87e", 0.20};
    case tech::Layer::kPPlus: return {"#c87e7e", 0.20};
    case tech::Layer::kContact: return {"#111111", 0.9};
    case tech::Layer::kMetal1: return {"#3060c0", 0.55};
    case tech::Layer::kVia1: return {"#e0e0e0", 0.9};
    case tech::Layer::kMetal2: return {"#9040c0", 0.45};
  }
  return {"#888888", 0.5};
}

/// CIF layer names (MOSIS-style).
const char* cifName(tech::Layer layer) {
  switch (layer) {
    case tech::Layer::kNWell: return "CWN";
    case tech::Layer::kActive: return "CAA";
    case tech::Layer::kPoly: return "CPG";
    case tech::Layer::kNPlus: return "CSN";
    case tech::Layer::kPPlus: return "CSP";
    case tech::Layer::kContact: return "CCC";
    case tech::Layer::kMetal1: return "CMF";
    case tech::Layer::kVia1: return "CVA";
    case tech::Layer::kMetal2: return "CMS";
  }
  return "CXX";
}

}  // namespace

std::string toSvg(const geom::ShapeList& shapes, double scale) {
  const geom::Rect box = shapes.bbox();
  const double margin = 20.0;
  const double w = box.width() * scale + 2 * margin;
  const double h = box.height() * scale + 2 * margin;
  std::ostringstream os;
  os << "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"" << w << "\" height=\"" << h
     << "\" viewBox=\"0 0 " << w << " " << h << "\">\n";
  os << "<rect width=\"100%\" height=\"100%\" fill=\"#fafaf7\"/>\n";
  // Draw in kAllLayers order so wells sit under everything else.
  for (tech::Layer layer : tech::kAllLayers) {
    for (const geom::Shape& s : shapes.shapes()) {
      if (s.layer != layer) continue;
      const LayerStyle st = styleOf(layer);
      const double x = (s.rect.x0 - box.x0) * scale + margin;
      // Flip y so the drawn origin is bottom-left.
      const double y = (box.y1 - s.rect.y1) * scale + margin;
      os << "<rect x=\"" << x << "\" y=\"" << y << "\" width=\"" << s.rect.width() * scale
         << "\" height=\"" << s.rect.height() * scale << "\" fill=\"" << st.fill
         << "\" fill-opacity=\"" << st.opacity << "\" stroke=\"" << st.fill
         << "\" stroke-width=\"0.4\">";
      if (!s.net.empty()) os << "<title>" << s.net << " (" << tech::layerName(layer) << ")</title>";
      os << "</rect>\n";
    }
  }
  os << "</svg>\n";
  return os.str();
}

std::string toCif(const geom::ShapeList& shapes, const std::string& cellName) {
  std::ostringstream os;
  os << "(CIF written by lo::layout);\n";
  os << "DS 1 1 1;\n";
  os << "9 " << cellName << ";\n";
  for (tech::Layer layer : tech::kAllLayers) {
    bool headerDone = false;
    for (const geom::Shape& s : shapes.shapes()) {
      if (s.layer != layer) continue;
      if (!headerDone) {
        os << "L " << cifName(layer) << ";\n";
        headerDone = true;
      }
      // CIF boxes: B width height xcenter ycenter, in centimicrons (10 nm).
      const geom::Coord cw = s.rect.width() / 10, ch = s.rect.height() / 10;
      const geom::Coord cx = (s.rect.x0 + s.rect.x1) / 20, cy = (s.rect.y0 + s.rect.y1) / 20;
      os << "B " << cw << " " << ch << " " << cx << " " << cy << ";\n";
    }
  }
  os << "DF;\nC 1;\nE\n";
  return os.str();
}

int gdsLayerNumber(tech::Layer layer) {
  switch (layer) {
    case tech::Layer::kNWell: return 1;
    case tech::Layer::kActive: return 2;
    case tech::Layer::kPoly: return 3;
    case tech::Layer::kNPlus: return 4;
    case tech::Layer::kPPlus: return 5;
    case tech::Layer::kContact: return 6;
    case tech::Layer::kMetal1: return 7;
    case tech::Layer::kVia1: return 8;
    case tech::Layer::kMetal2: return 9;
  }
  return 63;
}

namespace {

/// GDSII stream-format primitives (big-endian records).
class GdsStream {
 public:
  void record(std::uint8_t type, std::uint8_t dataType, const std::string& payload = {}) {
    const std::size_t len = 4 + payload.size();
    out_.push_back(static_cast<char>((len >> 8) & 0xff));
    out_.push_back(static_cast<char>(len & 0xff));
    out_.push_back(static_cast<char>(type));
    out_.push_back(static_cast<char>(dataType));
    out_ += payload;
  }
  static std::string i16(std::initializer_list<int> values) {
    std::string s;
    for (int v : values) {
      s.push_back(static_cast<char>((v >> 8) & 0xff));
      s.push_back(static_cast<char>(v & 0xff));
    }
    return s;
  }
  static std::string i32(std::initializer_list<long long> values) {
    std::string s;
    for (long long v : values) {
      for (int shift = 24; shift >= 0; shift -= 8) {
        s.push_back(static_cast<char>((v >> shift) & 0xff));
      }
    }
    return s;
  }
  /// GDS 8-byte real: sign bit, excess-64 base-16 exponent, 56-bit mantissa.
  static std::string real8(double v) {
    std::string s(8, '\0');
    if (v == 0.0) return s;
    const bool neg = v < 0;
    double mant = neg ? -v : v;
    int exp = 0;
    while (mant >= 1.0) {
      mant /= 16.0;
      ++exp;
    }
    while (mant < 1.0 / 16.0) {
      mant *= 16.0;
      --exp;
    }
    s[0] = static_cast<char>((neg ? 0x80 : 0x00) | ((exp + 64) & 0x7f));
    for (int i = 1; i < 8; ++i) {
      mant *= 256.0;
      const int byte = static_cast<int>(mant);
      s[i] = static_cast<char>(byte);
      mant -= byte;
    }
    return s;
  }
  static std::string text(const std::string& name) {
    std::string s = name;
    if (s.size() % 2) s.push_back('\0');  // Records are word-aligned.
    return s;
  }

  [[nodiscard]] const std::string& str() const { return out_; }

 private:
  std::string out_;
};

}  // namespace

std::string toGds(const geom::ShapeList& shapes, const std::string& cellName) {
  GdsStream g;
  g.record(0x00, 0x02, GdsStream::i16({600}));  // HEADER, version 6.
  // BGNLIB / BGNSTR carry creation timestamps; use a fixed epoch so output
  // is deterministic.
  const std::string stamp = GdsStream::i16({2000, 1, 1, 0, 0, 0, 2000, 1, 1, 0, 0, 0});
  g.record(0x01, 0x02, stamp);                        // BGNLIB.
  g.record(0x02, 0x06, GdsStream::text("LOLIB"));     // LIBNAME.
  g.record(0x03, 0x05, GdsStream::real8(1e-3) + GdsStream::real8(1e-9));  // UNITS.
  g.record(0x05, 0x02, stamp);                        // BGNSTR.
  g.record(0x06, 0x06, GdsStream::text(cellName));    // STRNAME.
  for (const geom::Shape& s : shapes.shapes()) {
    g.record(0x08, 0x00);                                          // BOUNDARY.
    g.record(0x0d, 0x02, GdsStream::i16({gdsLayerNumber(s.layer)}));  // LAYER.
    g.record(0x0e, 0x02, GdsStream::i16({0}));                     // DATATYPE.
    const geom::Rect& r = s.rect;
    g.record(0x10, 0x03, GdsStream::i32({r.x0, r.y0, r.x1, r.y0, r.x1, r.y1, r.x0, r.y1,
                                         r.x0, r.y0}));            // XY (closed).
    g.record(0x11, 0x00);                                          // ENDEL.
  }
  g.record(0x07, 0x00);  // ENDSTR.
  g.record(0x04, 0x00);  // ENDLIB.
  return g.str();
}

void writeFile(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot open for writing: " + path);
  out << content;
  if (!out) throw std::runtime_error("write failed: " + path);
  // Buffered bytes reach the file only at close, so a full disk may show
  // up only here.
  out.close();
  if (!out) throw std::runtime_error("write failed at close: " + path);
}

std::string outputPath(const std::string& name) {
  const char* env = std::getenv("LOS_OUT_DIR");
  const std::filesystem::path dir = (env != nullptr && *env != '\0')
                                        ? std::filesystem::path(env)
                                        : std::filesystem::path("examples/out");
  std::filesystem::create_directories(dir);
  return (dir / name).string();
}

}  // namespace lo::layout
