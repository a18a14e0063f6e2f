static int countEven(int[] arr, int n) {
    int result = 0;
    for (int i = 0; i < n; i = i + 1) {
        if (arr[i] % 2 == 0) {
            result = result + 1;
        }
    }
    return result;
}
