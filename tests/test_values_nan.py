"""The value-class contract's one interpreter-sensitive case, in the
standard library only, so that every supported interpreter runs it:

    PYTHONPATH=src python3.13 -m unittest tests.test_values_nan

A frozen value that holds one NaN object equals itself and its copy, and
hashes as its copy does: values compare their field tuples, and a tuple
compares its items by identity before ``==``.  3.13's ``dataclasses``
compares field by field, so there a frozen dataclass that holds a NaN is
unequal to its copy.
"""

import copy
import math
import unittest

from fedforge.logreg import ModelVector


class NanFieldTest(unittest.TestCase):
    def test_value_holding_one_nan_equals_itself_and_its_copy(self):
        value = ModelVector(math.nan, 0.0)
        twin = copy.copy(value)
        self.assertIs(twin.b0, value.b0)
        self.assertTrue(value == value)
        self.assertTrue(value == twin)
        self.assertFalse(value != twin)
        self.assertEqual(hash(value), hash(twin))


if __name__ == "__main__":
    unittest.main()
