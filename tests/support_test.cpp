// Unit tests for the support library: Rational, strings, XML, Rng.
#include <gtest/gtest.h>

#include <set>

#include "support/error.hpp"
#include "support/rational.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"
#include "support/xml.hpp"

namespace mamps {
namespace {

// ---------------------------------------------------------------- Rational

TEST(RationalTest, DefaultIsZero) {
  const Rational r;
  EXPECT_TRUE(r.isZero());
  EXPECT_EQ(r.num(), 0);
  EXPECT_EQ(r.den(), 1);
}

TEST(RationalTest, NormalizesOnConstruction) {
  const Rational r(6, 8);
  EXPECT_EQ(r.num(), 3);
  EXPECT_EQ(r.den(), 4);
}

TEST(RationalTest, NormalizesNegativeDenominator) {
  const Rational r(3, -6);
  EXPECT_EQ(r.num(), -1);
  EXPECT_EQ(r.den(), 2);
}

TEST(RationalTest, ZeroDenominatorThrows) { EXPECT_THROW(Rational(1, 0), Error); }

TEST(RationalTest, Addition) { EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6)); }

TEST(RationalTest, Subtraction) { EXPECT_EQ(Rational(1, 2) - Rational(1, 3), Rational(1, 6)); }

TEST(RationalTest, Multiplication) { EXPECT_EQ(Rational(2, 3) * Rational(9, 4), Rational(3, 2)); }

TEST(RationalTest, Division) { EXPECT_EQ(Rational(1, 2) / Rational(1, 4), Rational(2)); }

TEST(RationalTest, DivisionByZeroThrows) {
  EXPECT_THROW(Rational(1, 2) / Rational(0), Error);
}

TEST(RationalTest, Comparison) {
  EXPECT_LT(Rational(1, 3), Rational(1, 2));
  EXPECT_GT(Rational(7, 8), Rational(3, 4));
  EXPECT_EQ(Rational(2, 4), Rational(1, 2));
  EXPECT_LT(Rational(-1, 2), Rational(0));
}

TEST(RationalTest, ToString) {
  EXPECT_EQ(Rational(3, 4).toString(), "3/4");
  EXPECT_EQ(Rational(5).toString(), "5");
  EXPECT_EQ(Rational(-2, 6).toString(), "-1/3");
}

TEST(RationalTest, ToDouble) { EXPECT_DOUBLE_EQ(Rational(1, 4).toDouble(), 0.25); }

TEST(RationalTest, Reciprocal) {
  EXPECT_EQ(Rational(3, 7).reciprocal(), Rational(7, 3));
  EXPECT_THROW((void)Rational(0).reciprocal(), Error);
}

TEST(RationalTest, OverflowThrows) {
  const Rational big(std::int64_t{1} << 62, 1);
  EXPECT_THROW(big * big, Error);
}

TEST(RationalTest, CheckedLcm) {
  EXPECT_EQ(checkedLcm(4, 6), 12);
  EXPECT_EQ(checkedLcm(7, 13), 91);
  EXPECT_EQ(checkedLcm(0, 5), 0);
}

// A small parameterized sweep of arithmetic identities.
class RationalIdentityTest : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(RationalIdentityTest, AdditiveInverse) {
  const auto [n, d] = GetParam();
  const Rational r(n, d);
  EXPECT_TRUE((r + (-r)).isZero());
}

TEST_P(RationalIdentityTest, MultiplicativeInverse) {
  const auto [n, d] = GetParam();
  const Rational r(n, d);
  if (!r.isZero()) {
    EXPECT_EQ(r * r.reciprocal(), Rational(1));
  }
}

TEST_P(RationalIdentityTest, DistributiveLaw) {
  const auto [n, d] = GetParam();
  const Rational r(n, d);
  const Rational a(3, 5);
  const Rational b(-7, 2);
  EXPECT_EQ(r * (a + b), r * a + r * b);
}

INSTANTIATE_TEST_SUITE_P(Sweep, RationalIdentityTest,
                         ::testing::Values(std::pair{1, 2}, std::pair{-3, 4}, std::pair{0, 1},
                                           std::pair{10, 15}, std::pair{-7, -21},
                                           std::pair{1000, 3}, std::pair{-1, 1000000}));

// ----------------------------------------------------------------- strings

TEST(StringsTest, Trim) {
  EXPECT_EQ(trim("  hello  "), "hello");
  EXPECT_EQ(trim("\t\nx"), "x");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim("   "), "");
}

TEST(StringsTest, Split) {
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "c");
}

TEST(StringsTest, SplitEmpty) {
  const auto parts = split("", ',');
  ASSERT_EQ(parts.size(), 1u);
  EXPECT_EQ(parts[0], "");
}

TEST(StringsTest, StartsWith) {
  EXPECT_TRUE(startsWith("foobar", "foo"));
  EXPECT_FALSE(startsWith("foo", "foobar"));
}

TEST(StringsTest, ParseU64) {
  EXPECT_EQ(parseU64("42"), 42u);
  EXPECT_EQ(parseU64(" 7 "), 7u);
  EXPECT_THROW((void)parseU64("x"), ParseError);
  EXPECT_THROW((void)parseU64(""), ParseError);
  EXPECT_THROW((void)parseU64("12x"), ParseError);
}

TEST(StringsTest, ParseU32RejectsValuesAbove32Bits) {
  EXPECT_EQ(parseU32("4294967295"), 4294967295u);
  EXPECT_EQ(parseU32(" 7 "), 7u);
  EXPECT_THROW((void)parseU32("4294967296"), ParseError);
  EXPECT_THROW((void)parseU32("4294967297"), ParseError);
  EXPECT_THROW((void)parseU32("x"), ParseError);
}

TEST(StringsTest, ParseI64) {
  EXPECT_EQ(parseI64("-42"), -42);
  EXPECT_THROW((void)parseI64("4.2"), ParseError);
}

TEST(StringsTest, ParseDouble) {
  EXPECT_DOUBLE_EQ(parseDouble("0.5"), 0.5);
  EXPECT_DOUBLE_EQ(parseDouble("-3e2"), -300.0);
  EXPECT_THROW((void)parseDouble("abc"), ParseError);
}

TEST(StringsTest, Strprintf) {
  EXPECT_EQ(strprintf("%d-%s", 7, "x"), "7-x");
  EXPECT_EQ(strprintf("%.2f", 1.5), "1.50");
}

TEST(StringsTest, SanitizeIdentifier) {
  EXPECT_EQ(sanitizeIdentifier("actor-1.b"), "actor_1_b");
  EXPECT_EQ(sanitizeIdentifier("2fast"), "_2fast");
  EXPECT_EQ(sanitizeIdentifier(""), "_");
}

// --------------------------------------------------------------------- XML

TEST(XmlTest, ParsesSimpleElement) {
  const auto doc = xml::parse("<root a=\"1\" b='two'><child/></root>");
  EXPECT_EQ(doc.root().name(), "root");
  EXPECT_EQ(doc.root().attribute("a"), "1");
  EXPECT_EQ(doc.root().attribute("b"), "two");
  ASSERT_EQ(doc.root().children().size(), 1u);
  EXPECT_EQ(doc.root().children()[0]->name(), "child");
}

TEST(XmlTest, ParsesTextContent) {
  const auto doc = xml::parse("<m>  hello world  </m>");
  EXPECT_EQ(doc.root().text(), "hello world");
}

TEST(XmlTest, ParsesEntities) {
  const auto doc = xml::parse("<m v=\"&lt;&amp;&gt;\">&quot;&apos;&#65;</m>");
  EXPECT_EQ(doc.root().attribute("v"), "<&>");
  EXPECT_EQ(doc.root().text(), "\"'A");
}

TEST(XmlTest, SkipsCommentsAndDeclaration) {
  const auto doc =
      xml::parse("<?xml version=\"1.0\"?><!-- hi --><r><!-- inner --><c/></r>");
  EXPECT_EQ(doc.root().name(), "r");
  EXPECT_EQ(doc.root().children().size(), 1u);
}

TEST(XmlTest, NestedStructure) {
  const auto doc = xml::parse("<a><b><c x=\"1\"/></b><b/></a>");
  const auto bs = doc.root().childrenNamed("b");
  ASSERT_EQ(bs.size(), 2u);
  ASSERT_EQ(bs[0]->children().size(), 1u);
  EXPECT_EQ(bs[0]->children()[0]->attribute("x"), "1");
}

TEST(XmlTest, MismatchedTagThrows) {
  EXPECT_THROW(xml::parse("<a></b>"), ParseError);
}

TEST(XmlTest, UnterminatedThrows) {
  EXPECT_THROW(xml::parse("<a><b></b>"), ParseError);
}

TEST(XmlTest, TrailingContentThrows) {
  EXPECT_THROW(xml::parse("<a/><b/>"), ParseError);
}

TEST(XmlTest, RequiredAttributeThrows) {
  const auto doc = xml::parse("<a/>");
  EXPECT_THROW((void)doc.root().requiredAttribute("x"), ParseError);
}

TEST(XmlTest, RequiredChildThrows) {
  const auto doc = xml::parse("<a><b/></a>");
  EXPECT_NO_THROW((void)doc.root().requiredChild("b"));
  EXPECT_THROW((void)doc.root().requiredChild("c"), ParseError);
}

TEST(XmlTest, RoundTrip) {
  auto root = std::make_unique<xml::Element>("top");
  root->setAttribute("name", "a<b&c");
  auto& child = root->addChild("inner");
  child.setAttribute("k", "v\"q");
  child.setText("text & more");
  const xml::Document original(std::move(root));
  const auto reparsed = xml::parse(original.toString());
  EXPECT_EQ(reparsed.root().attribute("name"), "a<b&c");
  const auto* inner = reparsed.root().firstChild("inner");
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(inner->attribute("k"), "v\"q");
  EXPECT_EQ(inner->text(), "text & more");
}

TEST(XmlTest, EscapeCoversSpecials) {
  EXPECT_EQ(xml::escape("<a&'\">"), "&lt;a&amp;&apos;&quot;&gt;");
}

// --------------------------------------------------------------------- Rng

TEST(RngTest, Deterministic) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next(), b.next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int differences = 0;
  for (int i = 0; i < 10; ++i) {
    differences += (a.next() != b.next()) ? 1 : 0;
  }
  EXPECT_GT(differences, 5);
}

TEST(RngTest, RangeInclusive) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.range(3, 5);
    EXPECT_GE(v, 3u);
    EXPECT_LE(v, 5u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 3u);  // all three values occur
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

}  // namespace
}  // namespace mamps
