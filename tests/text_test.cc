// Unit tests for src/text: tokenizer, Porter stemmer, stopwords, n-grams,
// analyzer chain.

#include <gtest/gtest.h>

#include <ostream>

#include "text/analyzer.h"
#include "text/lexicon.h"
#include "text/ngram.h"
#include "text/porter_stemmer.h"
#include "text/stopwords.h"
#include "text/tokenizer.h"
#include "util/string_util.h"

namespace schemr {
namespace {

// --- tokenizer ---------------------------------------------------------------

TEST(TokenizerTest, SplitsOnDelimiters) {
  EXPECT_EQ(TokenizeToStrings("date_of_birth"),
            (std::vector<std::string>{"date", "of", "birth"}));
  EXPECT_EQ(TokenizeToStrings("date-of.birth/x"),
            (std::vector<std::string>{"date", "of", "birth", "x"}));
  EXPECT_EQ(TokenizeToStrings("first name"),
            (std::vector<std::string>{"first", "name"}));
}

TEST(TokenizerTest, SplitsCamelCase) {
  EXPECT_EQ(TokenizeToStrings("dateOfBirth"),
            (std::vector<std::string>{"date", "Of", "Birth"}));
  EXPECT_EQ(TokenizeToStrings("DateOfBirth"),
            (std::vector<std::string>{"Date", "Of", "Birth"}));
}

TEST(TokenizerTest, SplitsAcronymBoundary) {
  EXPECT_EQ(TokenizeToStrings("XMLSchema"),
            (std::vector<std::string>{"XML", "Schema"}));
  EXPECT_EQ(TokenizeToStrings("parseHTMLPage"),
            (std::vector<std::string>{"parse", "HTML", "Page"}));
}

TEST(TokenizerTest, SplitsLetterDigitBoundary) {
  EXPECT_EQ(TokenizeToStrings("address2"),
            (std::vector<std::string>{"address", "2"}));
  EXPECT_EQ(TokenizeToStrings("2ndPlace"),
            (std::vector<std::string>{"2", "nd", "Place"}));
}

TEST(TokenizerTest, EmptyAndPunctuationOnly) {
  EXPECT_TRUE(TokenizeToStrings("").empty());
  EXPECT_TRUE(TokenizeToStrings("--- ___ ...").empty());
}

TEST(TokenizerTest, PositionsAreSequential) {
  std::vector<Token> tokens = Tokenize("a_b c");
  ASSERT_EQ(tokens.size(), 3u);
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].position, 1u);
  EXPECT_EQ(tokens[2].position, 2u);
}

TEST(TokenizerTest, AllUppercaseStaysTogether) {
  EXPECT_EQ(TokenizeToStrings("HTML"), (std::vector<std::string>{"HTML"}));
  EXPECT_EQ(TokenizeToStrings("DATE_OF_BIRTH"),
            (std::vector<std::string>{"DATE", "OF", "BIRTH"}));
}

// --- Porter stemmer -------------------------------------------------------------

struct StemCase {
  const char* input;
  const char* expected;
};

/// Prints a case as its input word, so each case's test name is that word
/// rather than the bytes of two pointers.
void PrintTo(const StemCase& c, std::ostream* os) { *os << c.input; }

class PorterStemTest : public ::testing::TestWithParam<StemCase> {};

TEST_P(PorterStemTest, MatchesReference) {
  EXPECT_EQ(PorterStem(GetParam().input), GetParam().expected)
      << "input: " << GetParam().input;
}

// Reference outputs from Porter's published vocabulary.
INSTANTIATE_TEST_SUITE_P(
    ReferenceVocabulary, PorterStemTest,
    ::testing::Values(
        StemCase{"caresses", "caress"}, StemCase{"ponies", "poni"},
        StemCase{"ties", "ti"}, StemCase{"caress", "caress"},
        StemCase{"cats", "cat"}, StemCase{"feed", "feed"},
        StemCase{"agreed", "agre"}, StemCase{"plastered", "plaster"},
        StemCase{"bled", "bled"}, StemCase{"motoring", "motor"},
        StemCase{"sing", "sing"}, StemCase{"conflated", "conflat"},
        StemCase{"troubled", "troubl"}, StemCase{"sized", "size"},
        StemCase{"hopping", "hop"}, StemCase{"tanned", "tan"},
        StemCase{"falling", "fall"}, StemCase{"hissing", "hiss"},
        StemCase{"fizzed", "fizz"}, StemCase{"failing", "fail"},
        StemCase{"filing", "file"}, StemCase{"happy", "happi"},
        StemCase{"sky", "sky"}, StemCase{"relational", "relat"},
        StemCase{"conditional", "condit"}, StemCase{"rational", "ration"},
        StemCase{"valenci", "valenc"}, StemCase{"digitizer", "digit"},
        StemCase{"operator", "oper"}, StemCase{"feudalism", "feudal"},
        StemCase{"decisiveness", "decis"}, StemCase{"hopefulness", "hope"},
        StemCase{"formaliti", "formal"}, StemCase{"triplicate", "triplic"},
        StemCase{"formative", "form"}, StemCase{"formalize", "formal"},
        StemCase{"electriciti", "electr"}, StemCase{"electrical", "electr"},
        StemCase{"hopeful", "hope"}, StemCase{"goodness", "good"},
        StemCase{"revival", "reviv"}, StemCase{"allowance", "allow"},
        StemCase{"inference", "infer"}, StemCase{"airliner", "airlin"},
        StemCase{"adjustable", "adjust"}, StemCase{"defensible", "defens"},
        StemCase{"irritant", "irrit"}, StemCase{"replacement", "replac"},
        StemCase{"adjustment", "adjust"}, StemCase{"dependent", "depend"},
        StemCase{"adoption", "adopt"}, StemCase{"homologou", "homolog"},
        StemCase{"communism", "commun"}, StemCase{"activate", "activ"},
        StemCase{"angulariti", "angular"}, StemCase{"homologous", "homolog"},
        StemCase{"effective", "effect"}, StemCase{"bowdlerize", "bowdler"},
        StemCase{"probate", "probat"}, StemCase{"rate", "rate"},
        StemCase{"cease", "ceas"}, StemCase{"controll", "control"},
        StemCase{"roll", "roll"}));

TEST(PorterStemTest, DomainWordsConflate) {
  // The property schema search needs: grammatical variants share a stem.
  EXPECT_EQ(PorterStem("diagnosed"), PorterStem("diagnose"));
  EXPECT_EQ(PorterStem("observations"), PorterStem("observation"));
  EXPECT_EQ(PorterStem("enrollments"), PorterStem("enrollment"));
  EXPECT_EQ(PorterStem("payments"), PorterStem("payment"));
}

TEST(PorterStemTest, ShortAndNonAlphaUnchanged) {
  EXPECT_EQ(PorterStem("id"), "id");
  EXPECT_EQ(PorterStem("ab"), "ab");
  EXPECT_EQ(PorterStem("x1y"), "x1y");
  EXPECT_EQ(PorterStem("Name"), "Name");  // uppercase not handled: unchanged
}

// --- stopwords ---------------------------------------------------------------------

TEST(StopwordsTest, ClassicWords) {
  EXPECT_TRUE(IsStopword("the"));
  EXPECT_TRUE(IsStopword("of"));
  EXPECT_TRUE(IsStopword("and"));
  EXPECT_FALSE(IsStopword("patient"));
  EXPECT_FALSE(IsStopword(""));
  EXPECT_FALSE(IsStopword("The"));  // caller lowercases first
}

// --- n-grams -----------------------------------------------------------------------

TEST(NgramTest, BandedExtraction) {
  std::vector<std::string> grams = ExtractNgrams("abcd", 2, 3);
  EXPECT_EQ(grams, (std::vector<std::string>{"ab", "bc", "cd", "abc", "bcd"}));
}

TEST(NgramTest, ExhaustiveMatchesPaperDefinition) {
  // "all possible n-grams, ranging in length from one character to the
  // length of the word": for "abc" that is a,b,c,ab,bc,abc.
  std::vector<std::string> grams = ExtractAllNgrams("abc");
  EXPECT_EQ(grams.size(), 6u);
}

TEST(NgramTest, ClampAndEmpty) {
  EXPECT_TRUE(ExtractNgrams("", 1, 3).empty());
  EXPECT_EQ(ExtractNgrams("ab", 2, 10),
            (std::vector<std::string>{"ab"}));  // max_n clamped to len
  EXPECT_TRUE(ExtractNgrams("abc", 4, 5).empty());  // min_n beyond length
}

TEST(NgramTest, DiceIdenticalIsOne) {
  NgramProfile p = BuildNgramProfile("patient", 2, 4);
  EXPECT_DOUBLE_EQ(DiceSimilarity(p, p), 1.0);
}

TEST(NgramTest, DiceDisjointIsZero) {
  NgramProfile a = BuildNgramProfile("abc", 2, 3);
  NgramProfile b = BuildNgramProfile("xyz", 2, 3);
  EXPECT_DOUBLE_EQ(DiceSimilarity(a, b), 0.0);
}

TEST(NgramTest, DiceSymmetricAndBounded) {
  const char* words[] = {"patient", "pat", "doctor", "patientname", "a"};
  for (const char* wa : words) {
    for (const char* wb : words) {
      NgramProfile a = BuildNgramProfile(wa, 1, 4);
      NgramProfile b = BuildNgramProfile(wb, 1, 4);
      double ab = DiceSimilarity(a, b);
      double ba = DiceSimilarity(b, a);
      EXPECT_DOUBLE_EQ(ab, ba);
      EXPECT_GE(ab, 0.0);
      EXPECT_LE(ab, 1.0);
    }
  }
}

TEST(NgramTest, AbbreviationScoresAboveUnrelated) {
  NgramProfile full = BuildNgramProfile("patient", 1, 4);
  NgramProfile abbrev = BuildNgramProfile("pat", 1, 4);
  NgramProfile unrelated = BuildNgramProfile("order", 1, 4);
  EXPECT_GT(DiceSimilarity(full, abbrev), DiceSimilarity(full, unrelated));
}

TEST(NgramTest, JaccardLessOrEqualDice) {
  NgramProfile a = BuildNgramProfile("height", 1, 4);
  NgramProfile b = BuildNgramProfile("weight", 1, 4);
  EXPECT_LE(JaccardSimilarity(a, b), DiceSimilarity(a, b));
  EXPECT_GT(JaccardSimilarity(a, b), 0.0);
}

TEST(NgramTest, EmptyProfilesScoreZero) {
  NgramProfile empty;
  NgramProfile p = BuildNgramProfile("x", 1, 2);
  EXPECT_DOUBLE_EQ(DiceSimilarity(empty, empty), 0.0);
  EXPECT_DOUBLE_EQ(DiceSimilarity(empty, p), 0.0);
  EXPECT_DOUBLE_EQ(JaccardSimilarity(empty, empty), 0.0);
}

// --- lexicon -----------------------------------------------------------------------

TEST(LexiconTest, TablesNonEmptyAndLowercase) {
  EXPECT_FALSE(AbbreviationTable().empty());
  EXPECT_FALSE(SynonymTable().empty());
  for (const auto& [word, abbrevs] : AbbreviationTable()) {
    EXPECT_EQ(word, ToLowerAscii(word));
    EXPECT_FALSE(abbrevs.empty());
  }
}

TEST(LexiconTest, SynonymLookupIsSymmetric) {
  auto of_gender = SynonymsOf("gender");
  EXPECT_NE(std::find(of_gender.begin(), of_gender.end(), "sex"),
            of_gender.end());
  EXPECT_TRUE(AreSynonyms("gender", "sex"));
  EXPECT_TRUE(AreSynonyms("sex", "gender"));
  EXPECT_FALSE(AreSynonyms("gender", "gender"));  // identity ≠ synonymy
  EXPECT_FALSE(AreSynonyms("gender", "height"));
}

TEST(LexiconTest, AreSynonymsWorksOnStemmedForms) {
  // The matcher sees Porter-stemmed words: telephone → "telephon".
  EXPECT_TRUE(AreSynonyms(PorterStem("telephone"), PorterStem("phone")));
  EXPECT_TRUE(AreSynonyms(PorterStem("customers"), PorterStem("clients")));
}

// --- analyzer ------------------------------------------------------------------------

TEST(AnalyzerTest, FullChain) {
  Analyzer analyzer;
  // lowercase + stopword removal + stemming.
  EXPECT_EQ(analyzer.AnalyzeToStrings("The Dates of Births"),
            (std::vector<std::string>{"date", "birth"}));
}

TEST(AnalyzerTest, CamelAndSnakeProduceSameTerms) {
  Analyzer analyzer;
  EXPECT_EQ(analyzer.AnalyzeToStrings("dateOfBirth"),
            analyzer.AnalyzeToStrings("date_of_birth"));
  EXPECT_EQ(analyzer.AnalyzeToStrings("PatientHeight"),
            analyzer.AnalyzeToStrings("patient height"));
}

TEST(AnalyzerTest, OptionsDisableStages) {
  AnalyzerOptions options;
  options.stem = false;
  options.remove_stopwords = false;
  Analyzer analyzer(options);
  EXPECT_EQ(analyzer.AnalyzeToStrings("The Dates"),
            (std::vector<std::string>{"the", "dates"}));
}

TEST(AnalyzerTest, MinTokenLengthFilters) {
  AnalyzerOptions options;
  options.min_token_length = 3;
  Analyzer analyzer(options);
  EXPECT_EQ(analyzer.AnalyzeToStrings("id of patient x"),
            (std::vector<std::string>{"patient"}));
}

TEST(AnalyzerTest, PositionsPreservedAcrossFiltering) {
  Analyzer analyzer;  // removes stopwords
  std::vector<Token> tokens = analyzer.Analyze("date of birth");
  ASSERT_EQ(tokens.size(), 2u);
  EXPECT_EQ(tokens[0].position, 0u);
  EXPECT_EQ(tokens[1].position, 2u);  // gap where "of" was
}

TEST(AnalyzerTest, NormalizeWordSkipsFiltering) {
  Analyzer analyzer;
  // Stopwords survive NormalizeWord (matchers must not lose terms).
  EXPECT_EQ(analyzer.NormalizeWord("The"), "the");
  EXPECT_EQ(analyzer.NormalizeWord("Patients"), "patient");
}

}  // namespace
}  // namespace schemr
