#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "io/container.hpp"
#include "io/crc32.hpp"
#include "io/ppm.hpp"
#include "random/rng.hpp"

namespace cosmo::io {
namespace {

std::string temp_path(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(Crc32, KnownVectors) {
  // Standard test vector: CRC-32("123456789") = 0xCBF43926.
  const char* s = "123456789";
  EXPECT_EQ(crc32(s, 9), 0xCBF43926u);
  EXPECT_EQ(crc32("", 0), 0u);
}

TEST(Crc32, IncrementalMatchesOneShot) {
  const std::string data = "the quick brown fox jumps over the lazy dog";
  const std::uint32_t whole = crc32(data.data(), data.size());
  const std::uint32_t first = crc32(data.data(), 20);
  const std::uint32_t combined = crc32(data.data() + 20, data.size() - 20, first);
  EXPECT_EQ(combined, whole);
}

TEST(Crc32, DetectsSingleBitFlip) {
  std::vector<std::uint8_t> data(100, 0x55);
  const std::uint32_t before = crc32(data.data(), data.size());
  data[50] ^= 1;
  EXPECT_NE(crc32(data.data(), data.size()), before);
}

TEST(Container, SaveLoadRoundTrip) {
  Container c;
  {
    Variable v;
    v.field = Field("x", Dims::d1(100));
    for (std::size_t i = 0; i < 100; ++i) v.field.data[i] = static_cast<float>(i) * 0.5f;
    v.attributes["units"] = "Mpc/h";
    c.variables.push_back(std::move(v));
  }
  {
    Variable v;
    v.field = Field("density", Dims::d3(4, 5, 6));
    Rng rng(7);
    for (auto& x : v.field.data) x = static_cast<float>(rng.normal());
    c.variables.push_back(std::move(v));
  }
  const std::string path = temp_path("container_rt.gio");
  save(c, path, Dialect::kGenericIo);
  const Container loaded = load(path);
  ASSERT_EQ(loaded.variables.size(), 2u);
  EXPECT_EQ(loaded.variables[0].field.name, "x");
  EXPECT_EQ(loaded.variables[0].attributes.at("units"), "Mpc/h");
  EXPECT_EQ(loaded.variables[1].field.dims, Dims::d3(4, 5, 6));
  EXPECT_EQ(loaded.variables[0].field.data, c.variables[0].field.data);
  EXPECT_EQ(loaded.variables[1].field.data, c.variables[1].field.data);
  std::remove(path.c_str());
}

TEST(Container, DialectProbing) {
  Container c;
  Variable v;
  v.field = Field("f", Dims::d1(4), {1, 2, 3, 4});
  c.variables.push_back(v);

  const std::string gio_path = temp_path("probe.gio");
  const std::string h5_path = temp_path("probe.h5l");
  save(c, gio_path, Dialect::kGenericIo);
  save(c, h5_path, Dialect::kHdf5Lite);
  EXPECT_EQ(probe_dialect(gio_path), Dialect::kGenericIo);
  EXPECT_EQ(probe_dialect(h5_path), Dialect::kHdf5Lite);
  // Both dialects load through the same path.
  EXPECT_EQ(load(gio_path).variables[0].field.data, load(h5_path).variables[0].field.data);
  std::remove(gio_path.c_str());
  std::remove(h5_path.c_str());
}

TEST(Container, CorruptionDetectedByCrc) {
  Container c;
  Variable v;
  v.field = Field("f", Dims::d1(64));
  for (std::size_t i = 0; i < 64; ++i) v.field.data[i] = static_cast<float>(i);
  c.variables.push_back(v);
  const std::string path = temp_path("corrupt.gio");
  save(c, path, Dialect::kGenericIo);
  {
    // Flip one payload byte near the end of the file.
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(-5, std::ios::end);
    char byte;
    f.read(&byte, 1);
    f.seekp(-5, std::ios::end);
    byte = static_cast<char>(byte ^ 0xFF);
    f.write(&byte, 1);
  }
  EXPECT_THROW(load(path), FormatError);
  std::remove(path.c_str());
}

TEST(Container, FindByName) {
  Container c;
  Variable v;
  v.field = Field("vx", Dims::d1(4), {1, 2, 3, 4});
  c.variables.push_back(v);
  EXPECT_EQ(c.find("vx").field.data.size(), 4u);
  EXPECT_THROW((void)c.find("vy"), InvalidArgument);
  EXPECT_EQ(c.payload_bytes(), 16u);
}

TEST(Container, MissingFileThrows) {
  EXPECT_THROW(load("/nonexistent/path.gio"), IoError);
  EXPECT_THROW(probe_dialect("/nonexistent/path.gio"), IoError);
}

TEST(Container, TruncatedFileThrows) {
  Container c;
  Variable v;
  v.field = Field("f", Dims::d1(1000));
  c.variables.push_back(v);
  const std::string path = temp_path("trunc.gio");
  save(c, path, Dialect::kGenericIo);
  {
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() / 2);
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_THROW(load(path), FormatError);
  std::remove(path.c_str());
}

TEST(Ppm, WriteAndRasterLayout) {
  Image img(4, 2);
  img.set(0, 0, 255, 0, 0);
  img.set(3, 1, 0, 255, 0);
  EXPECT_EQ(img.rgb[0], 255);
  EXPECT_EQ(img.rgb[3 * (1 * 4 + 3) + 1], 255);
  const std::string path = temp_path("img.ppm");
  write_ppm(img, path);
  std::ifstream in(path, std::ios::binary);
  std::string magic;
  in >> magic;
  EXPECT_EQ(magic, "P6");
  std::remove(path.c_str());
}

TEST(Ppm, RenderSliceProducesImage) {
  Field f("rho", Dims::d3(8, 8, 4));
  Rng rng(8);
  for (auto& v : f.data) v = static_cast<float>(std::abs(rng.normal()) * 100.0 + 1.0);
  const Image img = render_slice(f, 2);
  EXPECT_EQ(img.width, 8u);
  EXPECT_EQ(img.height, 8u);
  // Not all black.
  std::size_t nonzero = 0;
  for (const auto b : img.rgb) {
    if (b != 0) ++nonzero;
  }
  EXPECT_GT(nonzero, 0u);
  EXPECT_THROW(render_slice(f, 10), InvalidArgument);
}

}  // namespace
}  // namespace cosmo::io
